package front

import (
	"context"
	"slices"
	"strings"
	"testing"

	"dscweaver/internal/pdg"
	"dscweaver/internal/weave"
)

func TestDSCLFrontend(t *testing.T) {
	parsed, err := DSCL(context.Background(), `process P {
	activity a opaque writes(x)
	activity b opaque reads(x)
	dependencies { data a -> b var(x) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Proc.Name != "P" || parsed.Deps.Len() != 1 {
		t.Errorf("parsed %s with %d deps, want P with 1", parsed.Proc.Name, parsed.Deps.Len())
	}
	if _, err := DSCL(context.Background(), `process "unterminated`); err == nil {
		t.Error("DSCL accepted malformed source")
	}
}

func TestSeqlangFrontend(t *testing.T) {
	parsed, err := Seqlang(context.Background(), "process P { sequence { assign a writes(x) assign b reads(x) } }")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Deps.Len() == 0 {
		t.Error("PDG extraction found no dependencies")
	}
	if parsed.Extra != nil {
		t.Error("seqlang frontend declared Extra constraints")
	}
	if _, err := Seqlang(context.Background(), "not a process"); err == nil {
		t.Error("Seqlang accepted malformed source")
	}
}

func TestByLang(t *testing.T) {
	for _, lang := range []string{"", "dscl", "seqlang"} {
		if fe, err := ByLang(lang); err != nil || fe == nil {
			t.Errorf("ByLang(%q) = (%v, %v), want a frontend", lang, fe, err)
		}
	}
	_, err := ByLang("cobol")
	if err == nil || !strings.Contains(err.Error(), "unknown lang") {
		t.Errorf("ByLang(cobol) = %v, want unknown-lang error", err)
	}
}

// TestSeqlangRemovalOrderDeterministic: the extracted dependency order
// is the constraint insertion order, so weaving the seqlang purchasing
// source again and again removes the same constraints in the same
// order and lists the minimal set in the same order.
func TestSeqlangRemovalOrderDeterministic(t *testing.T) {
	weaveOnce := func() (removed, minimal []string) {
		res, err := weave.Run(context.Background(), weave.Input{Source: pdg.PurchasingSeqlang},
			weave.Options{Frontend: Seqlang})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Minimize.Removed {
			removed = append(removed, c.String())
		}
		for i := 0; i < res.Minimize.Minimal.Len(); i++ {
			minimal = append(minimal, res.Minimize.Minimal.At(i).String())
		}
		return removed, minimal
	}
	wantRemoved, wantMinimal := weaveOnce()
	if len(wantRemoved) == 0 {
		t.Fatal("seqlang purchasing weave removed nothing")
	}
	for i := 0; i < 19; i++ {
		removed, minimal := weaveOnce()
		if !slices.Equal(removed, wantRemoved) {
			t.Fatalf("weave %d: removal order differs\ngot:  %v\nwant: %v", i+2, removed, wantRemoved)
		}
		if !slices.Equal(minimal, wantMinimal) {
			t.Fatalf("weave %d: minimal set order differs\ngot:  %v\nwant: %v", i+2, minimal, wantMinimal)
		}
	}
}
