// Package gondi reproduces "Integrating heterogeneous information
// services using JNDI" (Gorissen, Wendykier, Kurzyniec, Sunderam —
// IPPS/IPDPS 2006) as a self-contained Go system.
//
// The library provides a JNDI-style naming and directory API
// (internal/core) with pluggable service providers for four naming
// technologies implemented from scratch in this repository:
//
//   - Jini lookup services (internal/jini, provider internal/provider/jinisp)
//   - HDNS, a replicated fault-tolerant naming service over a
//     JGroups-style group communication stack (internal/hdns,
//     internal/jgroups, provider internal/provider/hdnssp)
//   - DNS (internal/dnssrv, provider internal/provider/dnssp)
//   - LDAP (internal/ldapsrv, provider internal/provider/ldapsp)
//
// plus filesystem and in-memory providers, federation of all of the
// above into one composite URL-named space, and a benchmark harness
// (internal/benchmark, cmd/ippsbench) that regenerates the paper's
// Figures 2-7 on a calibrated cost model. What this code itself costs
// is measured by the nested bench/ module (bench/README.md).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured comparison.
package gondi
