package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"
)

// TestStatsCodecCoversEveryField sets every Stats field to a distinct
// non-zero value and round-trips it through the capsule codec. A field
// missing from walkStats replays as zero and fails here; a field of a kind
// the codec cannot encode fails before encoding.
func TestStatsCodecCoversEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64: // time.Duration is an Int64
			f.SetInt(int64(i+1) * 1_000_003)
		default:
			t.Fatalf("Stats.%s has kind %s, which the capsule codec does not encode",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	got, ok := unmarshalCapsule(marshalCapsule(&entryCapsule{Stats: s}))
	if !ok {
		t.Fatal("stats-only capsule did not decode")
	}
	gv := reflect.ValueOf(got.Stats)
	for i := 0; i < v.NumField(); i++ {
		if gv.Field(i).Int() != v.Field(i).Int() {
			t.Errorf("Stats.%s replays as %d, want %d",
				v.Type().Field(i).Name, gv.Field(i).Int(), v.Field(i).Int())
		}
	}
}

// fullCapsule exercises every optional part of the layout.
func fullCapsule() *entryCapsule {
	ref := func(fn string, blk, idx int) instrRef { return instrRef{Fn: fn, Blk: blk, Idx: idx} }
	return &entryCapsule{
		Stats: Stats{EntryFunctions: 1, PathsExplored: 7, StepsExecuted: 300, AnalysisTime: -5},
		Cands: []candC{
			{
				Checker: "NPD", EntryFn: "entry", InFn: "helper", Category: "drivers",
				Bug:       ref("helper", 2, 1),
				HasOrigin: true, Origin: ref("entry", 0, 3),
				Path: []stepC{{Ref: ref("entry", 0, 0), Taken: true}, {Ref: ref("helper", 1, 12)}},
				Alts: [][]stepC{{{Ref: ref("entry", 4, 2)}}, nil},
				Extra: &extraC{Kind: 2, Val: -9, IsNull: true, Str: "s", IsStr: true,
					RegFn: "entry", RegID: 17, Name: "g", Pred: "slt", Bound: -1 << 62},
				AliasSet: []string{"p", "q->next"},
			},
			{Checker: "ML", EntryFn: "entry", Bug: ref("entry", 0, 0)},
		},
	}
}

func TestCapsuleCodecRoundTrip(t *testing.T) {
	want := fullCapsule()
	data := marshalCapsule(want)
	got, ok := unmarshalCapsule(data)
	if !ok {
		t.Fatal("capsule did not decode")
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip diverges:\ngot  %+v\nwant %+v", got, *want)
	}
	vwant := verdictC{Feasible: true, Constraints: 12, ConstraintsUnaware: 30, Trigger: []string{"q = 0", ""}}
	vgot, ok := unmarshalVerdict(marshalVerdict(&vwant))
	if !ok || !reflect.DeepEqual(vgot, vwant) {
		t.Errorf("verdict round trip: ok=%v got %+v want %+v", ok, vgot, vwant)
	}
}

// TestCapsuleCodecRejectsMalformed pins the strictness rules: truncation,
// trailing bytes, non-minimal varints, non-0/1 bools and counts longer
// than the remaining input are all rejected.
func TestCapsuleCodecRejectsMalformed(t *testing.T) {
	data := marshalCapsule(fullCapsule())
	for n := 0; n < len(data); n++ {
		if _, ok := unmarshalCapsule(data[:n]); ok {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
	}
	if _, ok := unmarshalCapsule(append(data[:len(data):len(data)], 0)); ok {
		t.Error("trailing byte accepted")
	}
	// Stats.EntryFunctions = 1 leads the capsule as the one-byte zigzag
	// varint 0x02; 0x82 0x00 is the same value, non-minimally encoded.
	if data[0] != 0x02 {
		t.Fatalf("unexpected leading byte %#x", data[0])
	}
	if _, ok := unmarshalCapsule(append([]byte{0x82, 0x00}, data[1:]...)); ok {
		t.Error("non-minimal varint accepted")
	}

	verdict := marshalVerdict(&verdictC{Feasible: true, Trigger: []string{"x = 1"}})
	bad := append([]byte(nil), verdict...)
	bad[0] = 2
	if _, ok := unmarshalVerdict(bad); ok {
		t.Error("bool byte 2 accepted")
	}
	// feasible, two zero counters, then a trigger count of 2^32 with no
	// bytes behind it.
	huge := []byte{1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, ok := unmarshalVerdict(huge); ok {
		t.Error("over-long count accepted")
	}
	if _, ok := unmarshalVerdict(nil); ok {
		t.Error("empty verdict accepted")
	}
}

// recordingCache is an in-memory EntryCache that keeps every payload.
type recordingCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *recordingCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *recordingCache) Save(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), data...)
}

// seedPayloads runs the capsule test program through a recording cache and
// returns the capsule ("e…") and verdict ("v…") payloads it wrote, in key
// order. The stand-in validator reports every candidate feasible with a
// trigger, so the verdicts carry strings.
func seedPayloads(tb testing.TB, prefix byte) [][]byte {
	tb.Helper()
	cache := &recordingCache{m: make(map[string][]byte)}
	cfg := Config{Cache: cache, Validate: true,
		ValidatePath: func(context.Context, *PossibleBug, Mode) ValidationOutcome {
			return ValidationOutcome{Feasible: true, Constraints: 4, ConstraintsUnaware: 9, Trigger: []string{"q = 0"}}
		}}
	RunParallel(lowerCapsuleSrc(tb), cfg, 2)
	var keys []string
	for k := range cache.m {
		if k[0] == prefix {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		tb.Fatalf("test program wrote no %q payloads", prefix)
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = cache.m[k]
	}
	return out
}

// allocBytes returns the heap bytes fn allocates: the least of three
// readings of the runtime's cumulative allocation counter. One reading can
// run high, because the counter charges a whole span's free slots when an
// allocation refills a span cache; decoding is deterministic, so the least
// reading is close to what fn itself allocates. (runtime.ReadMemStats is
// exact but stops the world, which stalls the fuzzing engine.)
func allocBytes(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	read := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	least := int64(math.MaxInt64)
	for try := 0; try < 3; try++ {
		before := read()
		fn()
		least = min(least, max(read()-before, 0))
	}
	return uint64(least)
}

// decodeAllocLimit bounds what decoding n bytes of input may allocate. The
// decoder sizes every slice by a count the remaining input must be able to
// hold, so allocation is linear in the input; the constant covers the
// fixed-size capsule and result headers.
func decodeAllocLimit(n int) uint64 { return 64*uint64(n) + 16<<10 }

// FuzzDecodeCapsule feeds arbitrary bytes to the capsule decoder: it must
// reject them or decode to a capsule that re-encodes to the same bytes,
// never panic, and allocate at most linearly in the input. Resolving the
// decoded refs against a module must not panic either.
func FuzzDecodeCapsule(f *testing.F) {
	for _, data := range seedPayloads(f, 'e') {
		f.Add(data)
	}
	f.Add(marshalCapsule(fullCapsule()))
	mod := lowerCapsuleSrc(f)
	checkers := checkersByName(Config{}.withDefaults())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := unmarshalCapsule(data)
		if ok {
			if re := marshalCapsule(&c); !bytes.Equal(re, data) {
				t.Fatalf("decoded capsule re-encodes differently:\nin  %x\nout %x", data, re)
			}
		}
		limit := decodeAllocLimit(len(data))
		if n := allocBytes(func() { decodeCapsule(data, mod, checkers) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}

// FuzzDecodeVerdict is FuzzDecodeCapsule's rule for verdict records.
func FuzzDecodeVerdict(f *testing.F) {
	for _, data := range seedPayloads(f, 'v') {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out ValidationOutcome
		var ok bool
		limit := decodeAllocLimit(len(data))
		if n := allocBytes(func() { out, ok = decodeVerdict(data) }); n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if !ok {
			return
		}
		if re := encodeVerdict(out); !bytes.Equal(re, data) {
			t.Fatalf("decoded verdict re-encodes differently:\nin  %x\nout %x", data, re)
		}
	})
}
