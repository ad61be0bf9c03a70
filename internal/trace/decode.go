package trace

import (
	"bytes"
	"fmt"
)

// Decode decodes a trace in either of its encodings, telling them
// apart by their first bytes: a binary trace (WriteBinary) starts with
// the "CLTR" magic and goes to DecodeBinary, a JSON trace (WriteJSON)
// starts with '{' after optional white space and goes to ReadJSON.
// Input that ends inside the magic is a cut-short binary trace and
// wraps ErrTruncated; any other input is rejected with an error that
// names both encodings. Decode does not retain data.
func Decode(data []byte) (*Trace, error) {
	n := min(len(data), len(binaryMagic))
	if string(data[:n]) == binaryMagic[:n] {
		return DecodeBinary(data)
	}
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return ReadJSON(bytes.NewReader(data))
	}
	return nil, fmt.Errorf("trace: unrecognized input %q: want a binary trace (%q magic) or a JSON trace (leading '{')",
		data[:n], binaryMagic)
}
