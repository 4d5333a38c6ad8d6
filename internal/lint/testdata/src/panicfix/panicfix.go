// Package panicfix is a lint fixture exercising the paniclint rules.
// Marker comments of the form `want "substring"` mark expected findings.
package panicfix

import (
	"errors"
	"fmt"
)

// Prefixed panics in all accepted shapes: literal, concatenation, Sprintf,
// Errorf. None may be flagged.
func UnreachableGuards(kind int, name string) {
	switch kind {
	case 0:
		panic("panicfix: unreachable state")
	case 1:
		panic("panicfix: bad name " + name)
	case 2:
		panic(fmt.Sprintf("panicfix: kind %d out of range", kind))
	case 3:
		panic(fmt.Errorf("panicfix: kind %d out of range", kind))
	}
}

// MustParse follows the Must* contract: panicking on the validated error is
// its documented behavior, whatever the argument shape.
func MustParse(s string) int {
	n, err := parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func parse(s string) (int, error) {
	if s == "" {
		return 0, errors.New("panicfix: empty")
	}
	return len(s), nil
}

// Bare panics that must all be flagged.
func BarePanics(err error) {
	if err != nil {
		panic(err) // want "bare panic in panicfix"
	}
	panic("without any prefix") // want "bare panic in panicfix"
}

// WrongPrefixShape: a capitalized or colon-less head is not the convention.
func WrongPrefixShape(n int) {
	if n < 0 {
		panic("Panicfix: capitalized prefix") // want "bare panic in panicfix"
	}
	panic(fmt.Sprintf("value %d", n)) // want "bare panic in panicfix"
}

// Rethrow is the observe-and-rethrow idiom: a deferred hook recovers,
// records, and re-panics the original value. The repanic must not be
// flagged — wrapping it in a prefixed string would destroy the value.
// A panic of a variable NOT bound from recover() stays a bare panic.
func Rethrow(dump func()) {
	defer func() {
		if r := recover(); r != nil {
			dump()
			panic(r)
		}
	}()
	notRecovered := errors.New("panicfix: made up")
	panic(notRecovered) // want "bare panic in panicfix"
}

// NotTheBuiltin: a local function named panic must not be flagged.
func NotTheBuiltin() {
	panic := func(v any) {}
	panic("shadowed, not the builtin")
}
