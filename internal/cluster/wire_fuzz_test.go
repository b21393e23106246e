package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzGRDXFrame drives the inter-node decoder — readPreamble and
// frameReader.read — with arbitrary bytes, both after a preamble and as a
// bare frame stream. It must never panic, every failure must wrap
// ErrTransport or be an io EOF, no payload may exceed MaxFramePayload,
// and every decoded frame must be exactly the bytes it consumed.
func FuzzGRDXFrame(f *testing.F) {
	frame := func(t byte, stream uint32, payload []byte) []byte {
		b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
		b[0] = t
		binary.LittleEndian.PutUint32(b[1:5], stream)
		binary.LittleEndian.PutUint32(b[5:9], uint32(len(payload)))
		return append(b, payload...)
	}
	preamble := []byte(TransportMagic + "\x01")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	key := make([]byte, 8)
	binary.LittleEndian.PutUint64(key, 0xfeedface)
	f.Add(cat(preamble, frame(frameOpen, 1, key), frame(frameData, 1, []byte("GRD1....")),
		frame(frameCloseSend, 1, nil), frame(frameVerdict, 1, []byte("{}\n")), frame(frameEnd, 1, nil)))
	f.Add(cat(preamble, frame(frameDrain, 0, nil), frame(frameUndrain, 0, nil), frame(frameAbort, 9, nil)))
	f.Add([]byte("GRD1\x01"))                                                   // bad magic
	f.Add([]byte(TransportMagic + "\x09"))                                      // bad version
	f.Add([]byte(TransportMagic))                                               // truncated preamble
	f.Add(cat(preamble, []byte{frameData, 1, 0, 0}))                            // truncated header
	f.Add(cat(preamble, []byte{frameData, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})) // length beyond the cap
	f.Add(cat(preamble, frame(frameData, 2, []byte("abcdef"))[:12]))            // truncated payload
	f.Add(cat(preamble, frame(0xee, 0xffffffff, nil)))                          // unknown type: framing still decodes

	fr := &frameReader{} // reused: its payload buffer is part of what is fuzzed
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readPreamble(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrTransport) {
			t.Fatalf("preamble error does not wrap ErrTransport: %v", err)
		}
		checkFrames(t, fr, data)
		if err == nil {
			checkFrames(t, fr, data[len(TransportMagic)+1:])
		}
	})
}

// checkFrames decodes data as a frame stream until the first error and
// checks each frame against the bytes it consumed.
func checkFrames(t *testing.T, fr *frameReader, data []byte) {
	r := bytes.NewReader(data)
	fr.r = r
	for {
		off := len(data) - r.Len()
		typ, stream, payload, err := fr.read()
		if err != nil {
			if !errors.Is(err, ErrTransport) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("frame at %d: error %v neither wraps ErrTransport nor is an io EOF", off, err)
			}
			return
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("frame at %d: %d-byte payload exceeds %d", off, len(payload), MaxFramePayload)
		}
		raw := data[off : off+frameHeaderLen+len(payload)]
		if typ != raw[0] || stream != binary.LittleEndian.Uint32(raw[1:5]) ||
			binary.LittleEndian.Uint32(raw[5:9]) != uint32(len(payload)) ||
			!bytes.Equal(payload, raw[frameHeaderLen:]) {
			t.Fatalf("frame at %d decoded as type %d stream %d len %d, not the bytes it consumed",
				off, typ, stream, len(payload))
		}
	}
}
