package inject

import (
	"errors"
	"fmt"
	"strconv"

	"avfstress/internal/isa"
	"avfstress/internal/pipe"
)

// Trial outcome blob codec. v1 blobs were a single outcome byte
// ({0}|{1}); v2 records the full trial outcome — corrupted flag plus the
// first-divergent-commit identity root-cause attribution consumes — as
// one self-describing text line at the same cache keys:
//
//	injtrial v2 <corrupted 0|1> <seq> <pc hex> <op> <src slot>
//
// The decoder is strict (exact canonical re-encode), so a legacy v1
// blob, a truncated write or any other undecodable entry fails decode
// and takes the discard-and-rebuild path; bit flips inside the blob body
// never survive to decoding at all — the persist layer's CRC framing
// quarantines them as cache misses first. Warm campaigns decode one blob
// per trial, so the codec is written by hand on strconv rather than fmt.

// appendTrial appends a trial record's canonical v2 blob to b.
func appendTrial(b []byte, t pipe.FaultTrial) []byte {
	b = append(b, "injtrial v2 "...)
	if t.Corrupted {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, t.Diverge.Seq, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, t.Diverge.PC, 16)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(t.Diverge.Op), 10)
	b = append(b, ' ')
	return strconv.AppendInt(b, int64(t.Diverge.SrcSlot), 10)
}

// encodeTrial renders a trial record as its canonical v2 blob.
func encodeTrial(t pipe.FaultTrial) []byte {
	return appendTrial(make([]byte, 0, 48), t)
}

// decodeTrial parses a v2 trial blob, rejecting anything that does not
// re-encode to the identical bytes.
func decodeTrial(b []byte) (pipe.FaultTrial, error) {
	sc := fieldScanner{rest: string(b)}
	sc.literal("injtrial")
	sc.literal("v2")
	c := sc.int(64)
	seq := sc.int(64)
	pc := sc.hex()
	op := sc.int(64)
	slot := sc.int(8)
	if !sc.done() {
		return pipe.FaultTrial{}, fmt.Errorf("inject: undecodable trial blob (%d bytes)", len(b))
	}
	if c != 0 && c != 1 || op < 0 || op > int64(isa.OpBranch) {
		return pipe.FaultTrial{}, errors.New("inject: trial blob field out of range")
	}
	t := pipe.FaultTrial{
		Corrupted: c == 1,
		Diverge:   pipe.Diverge{Seq: seq, PC: pc, Op: isa.Op(op), SrcSlot: int8(slot)},
	}
	var buf [64]byte
	if string(appendTrial(buf[:0], t)) != string(b) {
		return pipe.FaultTrial{}, errors.New("inject: non-canonical trial blob")
	}
	return t, nil
}

// fieldScanner reads the fields of a text blob in place. Fields are
// separated by exactly one space, and numbers must be spelled exactly
// as strconv.Append* writes them, so a blob scans only if it is the
// canonical encoding of what it holds: an empty field (doubled, leading
// or trailing space), a field that does not parse, a non-canonical
// spelling ("+1", "007", "-0", "FF") or a field requested past the end
// fails the scan. Errors are sticky; done reports whether every field
// scanned and the input is used up.
type fieldScanner struct {
	rest string
	end  bool // every field consumed
	bad  bool
}

func (sc *fieldScanner) next() string {
	if sc.end {
		sc.bad = true
		return ""
	}
	i := 0
	for i < len(sc.rest) && sc.rest[i] != ' ' {
		i++
	}
	f := sc.rest[:i]
	if i == len(sc.rest) {
		sc.rest, sc.end = "", true
	} else {
		sc.rest = sc.rest[i+1:]
	}
	if len(f) == 0 {
		sc.bad = true
	}
	return f
}

// literal consumes one field that must equal want.
func (sc *fieldScanner) literal(want string) {
	if sc.next() != want {
		sc.bad = true
	}
}

// int consumes one decimal field that fits a signed bitSize-bit integer.
func (sc *fieldScanner) int(bitSize int) int64 {
	f := sc.next()
	v, err := strconv.ParseInt(f, 10, bitSize)
	// ParseInt accepted [+-]?[0-9]+; canonical is "0" or [1-9][0-9]*,
	// the latter optionally after '-'.
	if err != nil || f[0] == '+' || f[0] == '-' && f[1] == '0' || f[0] == '0' && len(f) > 1 {
		sc.bad = true
	}
	return v
}

// hex consumes one lowercase hexadecimal field that fits a uint64.
func (sc *fieldScanner) hex() uint64 {
	f := sc.next()
	v, err := strconv.ParseUint(f, 16, 64)
	// ParseUint accepted [0-9a-fA-F]+; canonical is lowercase with no
	// leading zero.
	if err != nil || f[0] == '0' && len(f) > 1 {
		sc.bad = true
		return v
	}
	for i := 0; i < len(f); i++ {
		if 'A' <= f[i] && f[i] <= 'F' {
			sc.bad = true
		}
	}
	return v
}

// uint consumes one decimal field that fits a uint64.
func (sc *fieldScanner) uint() uint64 {
	f := sc.next()
	v, err := strconv.ParseUint(f, 10, 64)
	// ParseUint accepted [0-9]+; canonical has no leading zero.
	if err != nil || f[0] == '0' && len(f) > 1 {
		sc.bad = true
	}
	return v
}

func (sc *fieldScanner) done() bool { return !sc.bad && sc.end }
