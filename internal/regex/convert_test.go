package regex

import (
	"testing"

	"regexrw/internal/alphabet"
	"regexrw/internal/automata"
)

// TestRenderedSizeMatchesString: the size the converter caches per
// node — what MaxRenderBytes is checked against — is exactly the
// length of the expression's String rendering, parentheses, multi-byte
// ε/·/∅ and multi-character symbols included.
func TestRenderedSizeMatchesString(t *testing.T) {
	for _, expr := range []string{
		"a", "ε", "a·(b·a+c)*", "(rome+jerusalem)*·paris?", "(a+b)*·a·(a+b)·(a+b)",
		"e2*·e1·e3*", "(a·b+c)?·(d+e·f*)*", "x1·(x2+x3·x1)*·x2?",
	} {
		n := MustParse(expr)
		d := automata.Determinize(n.ToNFA(alphabet.New())).Minimize().TrimPartial()
		c := &converter{}
		out, err := fromNFA(c, d.NFA())
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(len(out.String())); c.rendered != got {
			t.Errorf("%s → %s: cached size %d, rendered %d", expr, out, c.rendered, got)
		}
	}
}
