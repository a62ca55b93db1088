// Package petri implements colored Petri nets and the reachability
// analysis DSCWeaver uses to validate synchronization schemes before
// code generation (§4.1: "the synchronization scheme described in DSCL
// can be mapped to Petri Nets for validation", [22]).
//
// Tokens carry a color string; the empty color is the plain black
// token of uncolored nets. Transitions consume colored tokens from
// input places (an empty color on the arc matches any token), test
// colors through read arcs without consuming, and produce colored
// tokens on output places. The extension from plain to colored tokens
// follows the paper's §4.1 remark that handling control dependencies
// is "the same as the extension from basic Petri Nets to Colored Petri
// Nets".
//
// The builder (build.go) maps a core.ConstraintSet to a net whose
// firing sequences are exactly the schedules the runtime engine may
// produce. The analysis half (analysis.go) decides the one property
// the paper's validation stage needs — workflow soundness: proper
// completion stays reachable and no deadlock exists — on a packed,
// 1-byte-per-slot kernel (packed.go). Build nets are 1-bounded, so
// the kernel's 255-token slot range is never reached.
package petri

// PlaceID indexes a place.
type PlaceID int

// TransitionID indexes a transition.
type TransitionID int

// Place is a typed token container.
type Place struct {
	Name string
	// Initial holds the colors of the tokens present at start; one
	// entry per token.
	Initial []string
}

// ArcKind distinguishes consuming, testing and producing arcs.
type ArcKind int

const (
	// ArcIn consumes one token (of the given color, or any token when
	// the color is empty) from the place.
	ArcIn ArcKind = iota
	// ArcRead requires a token of the given color to be present but
	// does not consume it (a test arc).
	ArcRead
	// ArcOut produces one token of the given color into the place.
	ArcOut
)

// Arc connects a transition to a place.
type Arc struct {
	Kind  ArcKind
	Place PlaceID
	// Color is the required (ArcIn/ArcRead) or produced (ArcOut)
	// color. Empty means "any" for inputs and "black token" for
	// outputs.
	Color string
}

// Transition is a firing rule.
type Transition struct {
	Name string
	Arcs []Arc
}

// Net is a colored Petri net.
type Net struct {
	places      []Place
	transitions []Transition
}

// New returns an empty net.
func New() *Net { return &Net{} }

// AddPlace appends a place with the given initial tokens.
func (n *Net) AddPlace(name string, initial ...string) PlaceID {
	n.places = append(n.places, Place{Name: name, Initial: initial})
	return PlaceID(len(n.places) - 1)
}

// AddTransition appends a transition.
func (n *Net) AddTransition(name string, arcs ...Arc) TransitionID {
	n.transitions = append(n.transitions, Transition{Name: name, Arcs: arcs})
	return TransitionID(len(n.transitions) - 1)
}

// In is a consuming-arc constructor.
func In(p PlaceID, color string) Arc { return Arc{Kind: ArcIn, Place: p, Color: color} }

// Read is a test-arc constructor.
func Read(p PlaceID, color string) Arc { return Arc{Kind: ArcRead, Place: p, Color: color} }

// Out is a producing-arc constructor.
func Out(p PlaceID, color string) Arc { return Arc{Kind: ArcOut, Place: p, Color: color} }

// Marking assigns each place a multiset of token colors, represented
// as color → count.
type Marking []map[string]int
