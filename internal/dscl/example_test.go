package dscl_test

import (
	"context"
	"fmt"

	"dscweaver/internal/dscl"
	"dscweaver/internal/weave"
)

// ExampleLoad parses a DSCL document and runs the weaver pipeline.
func ExampleLoad() {
	doc, err := dscl.Load(`
process Handover {
    activity prepare opaque writes(pkg)
    activity check decision reads(pkg) branches(T, F)
    activity ship opaque reads(pkg)
    activity refuse opaque

    dependencies {
        data prepare -> check var(pkg)
        control check ->[T] ship
        control check ->[F] refuse
        cooperation prepare -> ship why("packed before shipping")
    }
}
`)
	if err != nil {
		panic(err)
	}
	res, err := weave.Run(context.Background(), weave.Input{Parsed: doc.Parsed()}, weave.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("merged %d constraints, minimal %d\n", res.Translated.Len(), res.Minimize.Minimal.Len())
	fmt.Println(dscl.PrintConstraints(res.Minimize.Minimal))
	// Output:
	// merged 4 constraints, minimal 3
	// check ->[F] refuse
	// check ->[T] ship
	// prepare -> check
}
