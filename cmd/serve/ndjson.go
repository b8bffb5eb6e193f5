package main

import (
	"bytes"
	"encoding/json"
)

// appendAnswerLine appends one NDJSON answer line to dst: byte for byte
// what a json.Encoder with SetEscapeHTML(false) writes for
// queryAnswerLine{Type: "answer", From: from, To: to}. Names made of
// printable ASCII other than '"' and '\' need no escaping and are
// copied as they are, without reflection; any other name takes the
// encoder.
func appendAnswerLine(dst []byte, from, to string) []byte {
	if !plainJSON(from) || !plainJSON(to) {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(queryAnswerLine{Type: "answer", From: from, To: to})
		return append(dst, b.Bytes()...)
	}
	dst = append(dst, `{"type":"answer","from":"`...)
	dst = append(dst, from...)
	dst = append(dst, `","to":"`...)
	dst = append(dst, to...)
	return append(dst, "\"}\n"...)
}

// plainJSON reports whether s is printable ASCII without '"' or '\',
// the strings encoding/json writes between quotes unchanged.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
