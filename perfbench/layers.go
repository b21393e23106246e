package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark reads only what the rollup needs: each sample's count and
// stack, and each stack frame's function name and file.

type frame struct{ name, file string }

// stack is one sampled call stack, leaf first, with its sample count.
type stack struct {
	frames []frame
	count  int64
}

// parseProfile decodes a runtime/pprof CPU profile into its stacks.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type function struct{ name, file int64 }
	type location struct{ funcs []uint64 }
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		funcs   = map[uint64]function{}
		locs    = map[uint64]location{}
		samples []sample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2: // values, the sample count first
					var vals []uint64
					if vals, err = appendVarints(nil, v, b); err == nil && first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var l location
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = l
			return err
		case 5: // function
			var id uint64
			var f function
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, id := range s.locs {
			for _, fid := range locs[id].funcs {
				f := funcs[fid]
				st.frames = append(st.frames, frame{name: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrives either
// unpacked (one value v) or packed (the payload b).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// Layer names of the rollup. Samples whose stack holds only runtime
// frames are runtime.other (scheduler, timers, idle); samples with no
// frame the rules know are unattributed.
const (
	layerRuntimeOther = "runtime.other"
	layerUnattributed = "unattributed"
)

// gcFuncs are the runtime's allocation and collection entry points.
var gcFuncs = map[string]bool{
	"runtime.mallocgc": true, "runtime.gcBgMarkWorker": true, "runtime.gcDrain": true,
	"runtime.gcDrainN": true, "runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.gcAssistAlloc": true, "runtime.markroot": true, "runtime.scanobject": true,
	"runtime.sweepone": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
	"runtime.gcMarkTermination": true, "runtime.wbBufFlush": true, "runtime.scanstack": true,
}

// simPkgs are the packages of the simulated physical chain.
var simPkgs = map[string]bool{
	"acoustics": true, "nonlinear": true, "mic": true, "sim": true,
	"core": true, "attack": true, "psycho": true, "audio": true,
}

// layerOf maps one stack frame to its layer, or "" when the frame is
// glue (runtime or standard library) that belongs to its caller's layer.
func layerOf(f frame) string {
	name := f.name
	switch {
	case gcFuncs[name]:
		return "runtime.gc"
	case strings.HasPrefix(name, "syscall."), strings.HasPrefix(name, "internal/poll."),
		strings.HasPrefix(name, "internal/runtime/syscall."), strings.HasPrefix(name, "runtime/internal/syscall."):
		return "syscall"
	case strings.HasPrefix(name, "runtime/pprof."):
		return "profiler"
	case strings.HasPrefix(name, "main."), strings.HasPrefix(name, "inaudible/perfbench."):
		return "gen" // the benchmark itself (package main, or its import path under go test)
	}
	const repo = "inaudible/internal/"
	if !strings.HasPrefix(name, repo) {
		return ""
	}
	rest := name[len(repo):]
	pkg, fn, _ := strings.Cut(rest, ".")
	file := path.Base(f.file)
	switch pkg {
	case "dsp":
		return "dsp." + dspPart(fn, file)
	case "stream":
		switch file {
		case "cascade.go", "floor.go":
			return "stream.cascade"
		case "serve.go":
			return "stream.wire"
		}
		return "stream.analyzer"
	case "voice":
		if file == "vad.go" {
			return "voice.vad"
		}
		return "voice.synth"
	}
	if simPkgs[pkg] {
		return "sim"
	}
	return pkg
}

// dspPart splits the dsp package by kernel family.
func dspPart(fn, file string) string {
	switch {
	case file == "resample.go" || file == "stream_resample.go" ||
		fn == "besselI0" || fn == "sinc" || fn == "Kaiser":
		return "resample"
	case file == "correlate.go":
		return "correlate"
	case file == "fft.go" || file == "plan.go" || file == "batch.go" || file == "batchfft.go" ||
		file == "spectrogram.go" || strings.Contains(fn, "STFTAccumulator"):
		return "fft"
	case file == "fir.go" || file == "iir.go" || file == "envelope.go" || strings.Contains(fn, "StreamFIR"):
		return "fir"
	}
	return "other"
}

// stackLayer attributes one stack to the layer of its leaf-most frame
// that has one.
func stackLayer(st stack) string {
	onlyRuntime := true
	for _, f := range st.frames {
		if l := layerOf(f); l != "" {
			return l
		}
		if !strings.HasPrefix(f.name, "runtime.") {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return layerRuntimeOther
	}
	return layerUnattributed
}

// layerTable is a profile rolled up by layer.
type layerTable struct {
	samples map[string]int64
	total   int64
}

func rollup(stacks []stack) layerTable {
	t := layerTable{samples: map[string]int64{}}
	for _, st := range stacks {
		t.samples[stackLayer(st)] += st.count
		t.total += st.count
	}
	return t
}

// share is the percentage of the profile's samples in layer.
func (t layerTable) share(layer string) float64 {
	if t.total == 0 {
		return 0
	}
	return 100 * float64(t.samples[layer]) / float64(t.total)
}

// String renders the table, largest layer first.
func (t layerTable) String() string {
	names := make([]string, 0, len(t.samples))
	for n := range t.samples {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.samples[names[i]] > t.samples[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %7s\n", "layer", "samples", "share%")
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %8d %7.2f\n", n, t.samples[n], t.share(n))
	}
	fmt.Fprintf(&b, "%-20s %8d\n", "total", t.total)
	return b.String()
}
