package petri

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestStateTableChunks fills a state table past several chunk
// boundaries and reads every state back byte for byte, including one
// taken before later inserts: chunks never move, so a slice from state
// stays valid. stateLen above stateChunkBytes puts one state in each
// chunk.
func TestStateTableChunks(t *testing.T) {
	for _, stateLen := range []int{7, 64, 1000, stateChunkBytes - 1, stateChunkBytes, stateChunkBytes + 1, 3 * stateChunkBytes} {
		t.Run(fmt.Sprintf("stateLen=%d", stateLen), func(t *testing.T) {
			st := newStateTable(stateLen, 4)
			perChunk := 1 << st.shift
			if stateLen > stateChunkBytes && perChunk != 1 {
				t.Fatalf("%d states per chunk, want 1 above stateChunkBytes", perChunk)
			}
			if stateLen <= stateChunkBytes && (perChunk*stateLen > stateChunkBytes || 2*perChunk*stateLen <= stateChunkBytes) {
				t.Fatalf("%d states of %d bytes per chunk, want the most that fit %d bytes", perChunk, stateLen, stateChunkBytes)
			}
			n := 3*perChunk + 2
			rng := rand.New(rand.NewSource(int64(stateLen)))
			want := make([][]byte, 0, n)
			var first []byte
			for len(want) < n {
				s := make([]byte, stateLen)
				rng.Read(s)
				h := hashState(s)
				if _, ok := st.find(h, s); ok {
					continue
				}
				if id := st.insert(h, s); int(id) != len(want) {
					t.Fatalf("insert returned id %d, want %d", id, len(want))
				}
				want = append(want, s)
				if first == nil {
					first = st.state(0)
				}
			}
			if len(st.chunks) != (n+perChunk-1)/perChunk {
				t.Errorf("%d chunks for %d states, want %d", len(st.chunks), n, (n+perChunk-1)/perChunk)
			}
			if !bytes.Equal(first, want[0]) {
				t.Errorf("state 0 taken before later inserts changed")
			}
			for id, s := range want {
				if got := st.state(int32(id)); !bytes.Equal(got, s) {
					t.Fatalf("state %d differs after %d inserts", id, n)
				}
				if got, ok := st.find(hashState(s), s); !ok || int(got) != id {
					t.Fatalf("find(state %d) = %d, %v", id, got, ok)
				}
			}
		})
	}
}
