// Package jsondoc is the one strict decode of a JSON document: the
// plans, provenance records and stores a data owner keeps, and the
// request bodies of the service. Exactly one document is accepted;
// anything after it but whitespace is an error.
package jsondoc

import (
	"encoding/json"
	"errors"
	"io"
)

// ErrTrailingData reports input after the document.
var ErrTrailingData = errors.New("trailing data after JSON document")

// Decode decodes the one JSON document r holds into v. A second
// document, garbage, or a stray '}' or ']' after it is ErrTrailingData;
// a read error after it is returned as is. With knownFields, an object
// field that v has no place for is an error too.
func Decode(r io.Reader, v any, knownFields bool) error {
	dec := json.NewDecoder(r)
	if knownFields {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, not More: More takes a stray '}' or ']' for the end of the
	// input.
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, &syntax):
		return ErrTrailingData
	default:
		return err
	}
}
