package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"sharedopt/internal/resilience"
)

// FuzzReadFrame hammers the wire reader with arbitrary byte streams.
// Whatever arrives, readFrame must never panic or allocate past
// maxFrame; a frame it returns is exactly the body its length prefix
// announced, read without touching the bytes after it; and a stream it
// refuses is short or announces an oversized frame.
func FuzzReadFrame(f *testing.F) {
	req, err := encodeFrame(request{ID: 7, Op: opSubmit, Rec: &resilience.Record{
		Kind: resilience.KindAdditiveBid, User: 3, Opt: 1, Start: 1, End: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(req)
	f.Add(append(append([]byte(nil), req...), req...)) // two frames back to back
	f.Add(req[:len(req)/2])                            // torn body
	f.Add(req[:3])                                     // torn header
	f.Add([]byte{0, 0, 0, 0})                          // empty body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'})    // oversized prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		body, err := readFrame(r)
		consumed := len(data) - r.Len()
		if err != nil {
			if body != nil {
				t.Fatalf("error %v with a %d-byte body", err, len(body))
			}
			short := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			if len(data) >= 4 {
				n := binary.BigEndian.Uint32(data)
				if n > maxFrame {
					if short || consumed != 4 {
						t.Fatalf("oversized prefix %d: err %v after %d bytes", n, err, consumed)
					}
					return
				}
				if uint64(len(data)) >= 4+uint64(n) {
					t.Fatalf("complete %d-byte frame refused: %v", n, err)
				}
			}
			if !short {
				t.Fatalf("short stream refused with %v", err)
			}
			return
		}
		n := binary.BigEndian.Uint32(data)
		if uint32(len(body)) != n || n > maxFrame {
			t.Fatalf("prefix announces %d bytes, body holds %d", n, len(body))
		}
		if consumed != 4+len(body) || !bytes.Equal(body, data[4:consumed]) {
			t.Fatalf("read %d bytes for a %d-byte frame, or the body differs", consumed, len(body))
		}
	})
}
