package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeSniffsEncoding: Decode reads a binary and a JSON encoding
// of one trace to the same trace, with or without white space before
// the JSON.
func TestDecodeSniffsEncoding(t *testing.T) {
	want := buildSampleTrace()
	var bin, js bytes.Buffer
	if err := WriteBinary(&bin, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, want); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"binary":        bin.Bytes(),
		"json":          js.Bytes(),
		"indented json": append([]byte(" \n\t\r"), js.Bytes()...),
	} {
		got, err := Decode(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded trace differs:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestDecodeRejects: input cut inside the binary magic is truncated;
// anything else that is neither encoding gets one error naming both.
func TestDecodeRejects(t *testing.T) {
	for _, in := range []string{"", "C", "CL", "CLT"} {
		if _, err := Decode([]byte(in)); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%q) = %v, want ErrTruncated", in, err)
		}
	}
	for _, in := range []string{"CLTS\x01\x05", "not a trace", "  \n", "[]", "\x00"} {
		_, err := Decode([]byte(in))
		if err == nil || errors.Is(err, ErrTruncated) ||
			!strings.Contains(err.Error(), "binary trace") || !strings.Contains(err.Error(), "JSON trace") {
			t.Errorf("Decode(%q) = %v, want an error naming both encodings", in, err)
		}
	}
	// Inside a recognized encoding, the decoder's own error stands.
	if _, err := Decode([]byte("CLTR\x63")); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad binary version: %v", err)
	}
	if _, err := Decode([]byte(`{"threads": [`)); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("cut-short JSON: %v", err)
	}
}

// TestJSONRejectsWhatBinaryCannotCarry: the JSON decoder accepts only
// traces the binary encoding can hold, so both decode the same set.
func TestJSONRejectsWhatBinaryCannotCarry(t *testing.T) {
	const threads = `"threads":[{"id":0,"name":"main","creator":-1}]`
	for want, in := range map[string]string{
		"thread 0 has id 3": `{"threads":[{"id":3,"name":"t","creator":-1}],"objects":[],"events":[]}`,
		"object 0 has id 2": `{` + threads + `,"objects":[{"id":2,"kind":"mutex","name":"m"}],"events":[]}`,
		"parties -1":        `{` + threads + `,"objects":[{"id":0,"kind":"barrier","name":"b","parties":-1}],"events":[]}`,
		"thread 1 out of range": `{` + threads + `,"objects":[],"events":[` +
			`{"t":0,"seq":1,"thread":1,"kind":"thread-start","obj":-1}]}`,
		"obj -2 out of range": `{` + threads + `,"objects":[],"events":[` +
			`{"t":0,"seq":1,"thread":0,"kind":"thread-start","obj":-2}]}`,
		"event 1 out of order": `{` + threads + `,"objects":[],"events":[` +
			`{"t":5,"seq":2,"thread":0,"kind":"thread-start","obj":-1},` +
			`{"t":5,"seq":2,"thread":0,"kind":"thread-exit","obj":-1}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got %v, want an error containing %q", err, want)
		}
	}
}
