// Package wiretest holds the test helper the codecs built on
// internal/wire share.
package wiretest

import (
	"fmt"
	"reflect"
	"time"
)

var timeType = reflect.TypeOf(time.Time{})

// Fill sets every field reachable from ptr to a distinct non-zero value
// (negative for signed ints, so zig-zag is exercised; a time.Time to a
// distinct instant), so a field added to a wire struct without codec
// support decodes to zero and fails a round-trip comparison.
func Fill(ptr any) {
	var n int
	fill(reflect.ValueOf(ptr).Elem(), &n)
}

func fill(v reflect.Value, n *int) {
	*n++
	if v.Type() == timeType {
		v.Set(reflect.ValueOf(time.Unix(int64(*n), int64(*n))))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(-*n))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	default:
		panic("wiretest.Fill: unhandled kind " + v.Kind().String())
	}
}
