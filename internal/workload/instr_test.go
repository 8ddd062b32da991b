package workload

import (
	"reflect"
	"testing"
)

// maxSSAFields is the most fields a Go struct may have, at every level,
// for the compiler to keep values of it in registers.
const maxSSAFields = 4

// TestInstrFitsInRegisters guards the layout of Instr. A struct with a
// level of more than four fields cannot live in registers: each Next
// result is then spilled to the stack with byte stores and reloaded by
// the caller with wide loads, a store-forwarding stall once per
// simulated instruction.
func TestInstrFitsInRegisters(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		if typ.Kind() != reflect.Struct {
			return
		}
		if typ.NumField() > maxSSAFields {
			t.Errorf("%s has %d fields; at most %d keep it in registers", path, typ.NumField(), maxSSAFields)
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			walk(f.Type, path+"."+f.Name)
		}
	}
	walk(reflect.TypeOf(Instr{}), "Instr")
}
