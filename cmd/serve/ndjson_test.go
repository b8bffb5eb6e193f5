package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// encodedAnswerLine is the reference appendAnswerLine must match: the
// line json.Encoder (SetEscapeHTML(false)) writes for the answer.
func encodedAnswerLine(t testing.TB, from, to string) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(queryAnswerLine{Type: "answer", From: from, To: to}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkAnswerLine(t testing.TB, from, to string) {
	t.Helper()
	prefix := []byte("earlier line\n")
	got := appendAnswerLine(append([]byte(nil), prefix...), from, to)
	want := append(append([]byte(nil), prefix...), encodedAnswerLine(t, from, to)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("answer line for (%q, %q):\n got %q\nwant %q", from, to, got, want)
	}
}

// answerNameSeeds are the names the encoder treats specially: HTML
// characters (left alone without HTML escaping), quotes and
// backslashes, control bytes, DEL, non-ASCII text, invalid UTF-8 and
// the JavaScript line separators U+2028/U+2029.
var answerNameSeeds = []string{
	"", "n0", "node 17", "p-1_x.y:z", "<a&b>", `say "hi"`, `back\slash`,
	"tab\there", "nl\n", "\x00", "\x1f", "\x7f", "città", "東京", "🙂",
	"\xff", "bad\xc3", "\xed\xa0\x80", "line\u2028sep", "para\u2029sep",
	" ", "~}|{", "/slash/",
}

func TestAppendAnswerLineMatchesEncoder(t *testing.T) {
	for _, a := range answerNameSeeds {
		for _, b := range answerNameSeeds {
			checkAnswerLine(t, a, b)
		}
	}
}

// TestAppendAnswerLineProperty draws random names from a byte soup
// weighted toward the characters the encoder escapes.
func TestAppendAnswerLineProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", "9", " ", "<", ">", "&", `"`, `\`, "\x00", "\x08", "\n", "\x1f", "\x7f",
		"é", "€", "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "🙂", "/"}
	name := func() string {
		var b strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	plain := 0
	for i := 0; i < 5000; i++ {
		from, to := name(), name()
		if plainJSON(from) && plainJSON(to) {
			plain++
		}
		checkAnswerLine(t, from, to)
	}
	if plain == 0 {
		t.Fatal("property test never exercised the fast path")
	}
}

// TestPlainJSON pins the fast path's domain: printable ASCII except
// '"' and '\'; everything else takes the encoder.
func TestPlainJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c >= 0x20 && c <= 0x7e && c != '"' && c != '\\'
		if got := plainJSON(string([]byte{byte(c)})); got != want {
			t.Errorf("plainJSON(%q) = %v, want %v", c, got, want)
		}
	}
}

func FuzzAppendAnswerLine(f *testing.F) {
	for i, s := range answerNameSeeds {
		f.Add(s, answerNameSeeds[(i+1)%len(answerNameSeeds)])
	}
	f.Fuzz(func(t *testing.T, from, to string) {
		checkAnswerLine(t, from, to)
		line := appendAnswerLine(nil, from, to)
		if !utf8.Valid(line) {
			t.Fatalf("line is not UTF-8: %q", line)
		}
	})
}
