package jsondoc

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, tc := range []struct {
		in          string
		knownFields bool
		want        error // nil, ErrTrailingData, or any other error (errOther)
	}{
		{`{"a":1}`, true, nil},
		{" \n{\"a\":1}\n\t ", true, nil},
		{`{"a":1}}`, true, ErrTrailingData},
		{`{"a":1}]`, true, ErrTrailingData},
		{`{"a":1} }`, false, ErrTrailingData},
		{`{"a":1}{}`, true, ErrTrailingData},
		{`{"a":1} 5`, true, ErrTrailingData},
		{`{"a":1} trailing`, true, ErrTrailingData},
		{`{"a":1,"b":2}`, false, nil},
		{`{"a":1,"b":2}`, true, errOther},
		{`{"a":`, true, errOther},
		{``, true, errOther},
	} {
		var v doc
		err := Decode(strings.NewReader(tc.in), &v, tc.knownFields)
		switch {
		case tc.want == nil && err != nil,
			tc.want == ErrTrailingData && !errors.Is(err, ErrTrailingData),
			tc.want == errOther && (err == nil || errors.Is(err, ErrTrailingData)):
			t.Errorf("Decode(%q, knownFields=%v) = %v, want %v", tc.in, tc.knownFields, err, tc.want)
		}
		if err == nil && v.A != 1 {
			t.Errorf("Decode(%q) decoded %+v", tc.in, v)
		}
	}
}

var errOther = errors.New("some other error")

// TestDecodeReadError: a read error after the document is the
// reader's, not a trailing-data verdict, so a caller can still tell a
// body cap from a malformed document.
func TestDecodeReadError(t *testing.T) {
	boom := errors.New("boom")
	r := iotest.DataErrReader(strings.NewReader(`{"a":1}`))
	var v map[string]int
	if err := Decode(r, &v, false); err != nil {
		t.Fatalf("clean EOF with data: %v", err)
	}
	err := Decode(io.MultiReader(strings.NewReader(`{"a":1} `), iotest.ErrReader(boom)), &v, false)
	if !errors.Is(err, boom) {
		t.Fatalf("read error after the document: got %v, want %v", err, boom)
	}
}
