package workload

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"drizzle/internal/data"
)

// TestScannerEdgeCases: the documents the two old parsers got wrong, and the
// malformed ones the walker must refuse.
func TestScannerEdgeCases(t *testing.T) {
	t.Run("view event", func(t *testing.T) {
		for _, c := range []struct {
			name, doc string
			ad        string
			at        int64
			kept      bool
		}{
			{"plain", `{"ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"escaped quote in a skipped value", `{"page_id":"a\"b","ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"escaped quote hides a field name", `{"page_id":"\",\"ad_id\":\"ad-2","ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"escaped backslash ends a value", `{"page_id":"a\\","ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"escaped quote in a key", `{"pa\"ge":"x","ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"other scalars", `{"a":true,"b":null,"c":-0.5e+3,"ad_id":"ad-1","event_type":"view","event_time":5}`, "ad-1", 5, true},
			{"largest time", `{"ad_id":"ad-1","event_type":"view","event_time":9223372036854775807}`, "ad-1", 9223372036854775807, true},
			{"smallest time", `{"ad_id":"ad-1","event_type":"view","event_time":-9223372036854775808}`, "ad-1", -9223372036854775808, true},
			{"click", `{"ad_id":"ad-1","event_type":"click","event_time":5}`, "", 0, false},
			{"click with a garbage tail", `{"ad_id":"ad-1","event_type":"click",]]]`, "", 0, false},
			{"unterminated string", `{"ad_id":"ad-1","event_type":"view","event_time":5,"ip":"10.0`, "", 0, false},
			{"unterminated string behind an escaped quote", `{"ad_id":"ad-1","event_type":"view","event_time":5,"ip":"10.0\"}`, "", 0, false},
			{"unterminated key", `{"ad_id":"ad-1","event_type":"view","event_time":5,"ip`, "", 0, false},
			{"no closing brace", `{"ad_id":"ad-1","event_type":"view","event_time":5`, "", 0, false},
			{"bytes after the closing brace", `{"ad_id":"ad-1","event_type":"view","event_time":5}}`, "", 0, false},
			{"empty number", `{"ad_id":"ad-1","event_type":"view","event_time":}`, "", 0, false},
			{"sign without digits", `{"ad_id":"ad-1","event_type":"view","event_time":-}`, "", 0, false},
			{"non-numeric number", `{"ad_id":"ad-1","event_type":"view","event_time":abc}`, "", 0, false},
			{"digits then letters", `{"ad_id":"ad-1","event_type":"view","event_time":12a}`, "", 0, false},
			{"fraction", `{"ad_id":"ad-1","event_type":"view","event_time":1.5}`, "", 0, false},
			{"time is a string", `{"ad_id":"ad-1","event_type":"view","event_time":"5"}`, "", 0, false},
			{"overflow by one", `{"ad_id":"ad-1","event_type":"view","event_time":9223372036854775808}`, "", 0, false},
			{"negative overflow by one", `{"ad_id":"ad-1","event_type":"view","event_time":-9223372036854775809}`, "", 0, false},
			{"overflow by digits", `{"ad_id":"ad-1","event_type":"view","event_time":1000000000000000000000000}`, "", 0, false},
			{"ad is a number", `{"ad_id":7,"event_type":"view","event_time":5}`, "", 0, false},
			{"escape in the ad", `{"ad_id":"ad\u002d1","event_type":"view","event_time":5}`, "", 0, false},
			{"nested value", `{"x":{"y":1},"ad_id":"ad-1","event_type":"view","event_time":5}`, "", 0, false},
			{"array value", `{"x":[1],"ad_id":"ad-1","event_type":"view","event_time":5}`, "", 0, false},
			{"missing value", `{"x":,"ad_id":"ad-1","event_type":"view","event_time":5}`, "", 0, false},
			{"missing colon", `{"x""ad_id":"ad-1","event_type":"view","event_time":5}`, "", 0, false},
			{"doubled comma", `{"ad_id":"ad-1",,"event_type":"view","event_time":5}`, "", 0, false},
			{"duplicated field", `{"ad_id":"ad-1","ad_id":"ad-1","event_type":"view","event_time":5}`, "", 0, false},
			{"empty object", `{}`, "", 0, false},
			{"empty", ``, "", 0, false},
		} {
			ad, at, kept := parseViewEvent([]byte(c.doc))
			if kept != c.kept || string(ad) != c.ad || at != c.at {
				t.Errorf("%s: %s\n\tgot (%q, %d, %v), want (%q, %d, %v)", c.name, c.doc, ad, at, kept, c.ad, c.at, c.kept)
			}
		}
	})
	t.Run("heartbeat", func(t *testing.T) {
		for _, c := range []struct {
			name, doc string
			sess      string
			ts        int64
			valid     bool
		}{
			{"plain", `{"session_id":"s-1","ts":9}`, "s-1", 9, true},
			{"ts first", `{"ts":9,"session_id":"s-1"}`, "s-1", 9, true},
			{"escaped quote hides a field name", `{"cdn":"\"session_id\":\"evil","session_id":"s-1","ts":9}`, "s-1", 9, true},
			{"nothing is read behind the later field", `{"session_id":"s-1","ts":9,"cdn":]]]`, "s-1", 9, true},
			{"first occurrence counts", `{"session_id":"s-1","session_id":"s-2","ts":9}`, "s-1", 9, true},
			{"unterminated number", `{"session_id":"s-1","ts":9`, "", 0, false},
			{"unterminated session", `{"ts":9,"session_id":"s-1`, "", 0, false},
			{"overflow", `{"session_id":"s-1","ts":9223372036854775808}`, "", 0, false},
			{"empty number", `{"session_id":"s-1","ts":}`, "", 0, false},
			{"session is a number", `{"session_id":1,"ts":9}`, "", 0, false},
			{"no ts", `{"session_id":"s-1","event":"play"}`, "", 0, false},
		} {
			sess, ts, valid := parseHeartbeat([]byte(c.doc))
			if valid != c.valid || string(sess) != c.sess || ts != c.ts {
				t.Errorf("%s: %s\n\tgot (%q, %d, %v), want (%q, %d, %v)", c.name, c.doc, sess, ts, valid, c.sess, c.ts, c.valid)
			}
		}
	})
}

// TestStringEndMatchesByteLoop checks the eight-bytes-at-a-time search
// against the obvious loop, with quotes and backslashes at every offset of
// the word and the string ending inside, at and after a word boundary.
func TestStringEndMatchesByteLoop(t *testing.T) {
	naive := func(b []byte, i int) int {
		for ; i < len(b); i++ {
			if b[i] == '"' {
				return i
			}
			if b[i] == '\\' {
				i++
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte(`ab"\` + "\x00\x80\xa2\xdc\xff!#[]")
	for n := 0; n <= 40; n++ {
		for try := 0; try < 400; try++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
				if rng.Intn(3) > 0 {
					b[i] = 'x'
				}
			}
			for i := 0; i <= n; i++ {
				if got, want := stringEnd(b, i), naive(b, i); got != want {
					t.Fatalf("stringEnd(%q, %d) = %d, want %d", b, i, got, want)
				}
			}
		}
	}
}

// jsonMembers is encoding/json's reading of a document: the decoded values
// of every top-level member, by decoded key, in order of appearance. ok is
// false unless the document is one valid JSON object.
func jsonMembers(doc []byte) (members map[string][]any, ok bool) {
	if !json.Valid(doc) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	members = make(map[string][]any)
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, false
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, false
		}
		members[key.(string)] = append(members[key.(string)], v)
	}
	return members, true
}

// verdict is what a parser made of a document. judged is false where
// encoding/json cannot arbitrate: it takes the last of a repeated member and
// rewrites invalid UTF-8, the walker does neither.
type verdict struct {
	accepted bool
	key      string // ad id or session id
	time     int64
	judged   bool
}

func (v verdict) same(o verdict) bool {
	return v.accepted == o.accepted && (!v.accepted || (v.key == o.key && v.time == o.time))
}

// jsonVerdict reads the string member strKey and the integer member intKey
// with encoding/json, plus, when typeKey is set, the string member typeKey
// that must equal "view".
func jsonVerdict(doc []byte, strKey, intKey, typeKey string) verdict {
	members, ok := jsonMembers(doc)
	if !ok {
		return verdict{judged: true}
	}
	v := verdict{accepted: true, judged: true}
	one := func(key string) any {
		switch vals := members[key]; len(vals) {
		case 0:
			v.accepted = false
		case 1:
			return vals[0]
		default:
			v.judged = false
		}
		return nil
	}
	if s, isString := one(strKey).(string); isString {
		v.key = s
	} else {
		v.accepted = false
	}
	n, _ := one(intKey).(json.Number)
	t, err := strconv.ParseInt(n.String(), 10, 64)
	if err != nil {
		v.accepted = false
	}
	v.time = t
	if typeKey != "" && one(typeKey) != "view" {
		v.accepted = false
	}
	if !v.accepted {
		v.key, v.time = "", 0
	}
	return v
}

func scanView(doc []byte) verdict {
	ad, at, kept := parseViewEvent(doc)
	return verdict{accepted: kept, key: string(ad), time: at, judged: utf8.Valid(ad)}
}

func scanHeartbeat(doc []byte) verdict {
	sess, ts, valid := parseHeartbeat(doc)
	return verdict{accepted: valid, key: string(sess), time: ts, judged: utf8.Valid(sess)}
}

func refView(doc []byte) verdict {
	ev, ok := refParseAdEvent(doc)
	if !ok || ev.eventType != "view" {
		return verdict{}
	}
	return verdict{accepted: true, key: ev.adID, time: ev.eventTime}
}

func refHeartbeat(doc []byte) verdict {
	sess, ts, ok := refParseHeartbeat(doc)
	if !ok {
		return verdict{}
	}
	return verdict{accepted: true, key: sess, time: ts}
}

// variants derives from one generated document the malformed and reordered
// documents of the differential test. The generated documents have no comma
// inside a value, so their members split on commas.
func variants(doc []byte, rng *rand.Rand) [][]byte {
	members := strings.Split(string(doc[1:len(doc)-1]), ",")
	join := func(m []string) []byte { return []byte("{" + strings.Join(m, ",") + "}") }
	out := [][]byte{doc}
	for k := 0; k < 4; k++ { // shuffled field orders
		m := append([]string(nil), members...)
		rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
		out = append(out, join(m))
	}
	for i := range members {
		// One member missing.
		out = append(out, join(append(append([]string(nil), members[:i]...), members[i+1:]...)))
		// One member twice: in place, and with another value at either end.
		out = append(out, join(append(append([]string(nil), members[:i+1]...), members[i:]...)))
		key, val, _ := strings.Cut(members[i], ":")
		other := key + ":" + strings.NewReplacer("1", "2", "e", "a", "0", "7").Replace(val)
		out = append(out, join(append([]string{other}, members...)))
		out = append(out, join(append(append([]string(nil), members...), other)))
	}
	for cut := 0; cut < len(doc); cut++ { // every truncation
		out = append(out, doc[:cut])
	}
	// Garbage where the next member should start, after each member.
	for i := range members {
		head := "{" + strings.Join(members[:i+1], ",")
		for _, tail := range []string{`,]]]`, `,"x":"unterminated`, `,"x":{"y":[1,2]}}`, `}}`, `}trailing`, `,"a\"b":"c\\"}`, ``} {
			out = append(out, []byte(head+tail))
		}
	}
	return out
}

// TestScannerMatchesReference runs the walker and the parser it replaced
// over generated events of both workloads and the variants above. They must
// give the same verdict and the same (key, time); where they do not, the
// walker must be the one that agrees with encoding/json — which is how the
// old parsers' defects (see reference_test.go) are told from regressions.
func TestScannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	y := NewYahoo(DefaultYahooConfig())
	v := NewVideo(DefaultVideoConfig())
	for _, w := range []struct {
		name      string
		events    []data.Record
		scan, ref func([]byte) verdict
		json      func([]byte) verdict
	}{
		{"yahoo", y.Gen(1, epoch, epoch+int64(4e6)), scanView, refView,
			func(doc []byte) verdict { return jsonVerdict(doc, "ad_id", "event_time", "event_type") }},
		{"video", v.Gen(1, epoch, epoch+int64(4e6)), scanHeartbeat, refHeartbeat,
			func(doc []byte) verdict { return jsonVerdict(doc, "session_id", "ts", "") }},
	} {
		docs, accepted, arbitrated := 0, 0, 0
		for _, ev := range w.events {
			for i, doc := range variants(ev.Payload, rng) {
				got, ref := w.scan(doc), w.ref(doc)
				docs++
				if got.accepted {
					accepted++
				}
				if got.same(ref) {
					continue
				}
				if i == 0 {
					t.Fatalf("%s: parsers disagree on a generated event %s: walker %+v, reference %+v", w.name, doc, got, ref)
				}
				arbitrated++
				if j := w.json(doc); !j.judged || !got.judged || !got.same(j) {
					t.Fatalf("%s: %s\n\twalker %+v\n\treference %+v\n\tencoding/json %+v", w.name, doc, got, ref, j)
				}
			}
		}
		if accepted == 0 || accepted == docs {
			t.Fatalf("%s: walker accepted %d of %d documents", w.name, accepted, docs)
		}
		t.Logf("%s: %d documents, %d accepted, %d settled by encoding/json", w.name, docs, accepted, arbitrated)
	}
}

// viewFilterCases are hand-written documents at the edges of the filter in
// front of the view walker: viewNeedle where no view is, and views that are
// not viewType byte for byte. The checked-in fuzz corpus holds the same
// documents.
var viewFilterCases = []struct{ name, doc string }{
	{"needle inside another value", `{"user_id":"u-1","page_id":"preview","ad_id":"ad-1","event_type":"click","event_time":5}`},
	{"needle inside a key", `{"preview":"x","ad_id":"ad-1","event_type":"purchase","event_time":5}`},
	{"needle inside another value of a view", `{"page_id":"preview","ad_id":"ad-1","event_type":"view","event_time":5}`},
	{"escaped view", `{"ad_id":"ad-1","event_type":"vi\u0065w","event_time":5}`},
	{"escaped quote inside view", `{"ad_id":"ad-1","event_type":"vie\"w","event_time":5}`},
	{"event_type repeats", `{"ad_id":"ad-1","event_type":"view","event_type":"view","event_time":5}`},
	{"view is the last member", `{"ad_id":"ad-1","event_time":5,"event_type":"view"}`},
}

// TestViewFilterKeepsWalkerVerdict: the byte search in front of the walker
// only ever rejects what the walker would reject, so parseViewEvent and
// walkViewEvent agree on every document — generated events of both
// workloads, every variant of each, and the hand-written edges above.
func TestViewFilterKeepsWalkerVerdict(t *testing.T) {
	docs, filtered := 0, 0
	check := func(name string, doc []byte) {
		docs++
		if !bytes.Contains(doc, viewNeedle) {
			filtered++
		}
		ad, at, kept := parseViewEvent(doc)
		wad, wat, wkept := walkViewEvent(doc)
		if kept != wkept || !bytes.Equal(ad, wad) || at != wat {
			t.Fatalf("%s: %q\n\tfiltered (%q, %d, %v), walked (%q, %d, %v)", name, doc, ad, at, kept, wad, wat, wkept)
		}
	}
	rng := rand.New(rand.NewSource(11))
	y := NewYahoo(DefaultYahooConfig())
	v := NewVideo(DefaultVideoConfig())
	for _, ev := range append(y.Gen(2, epoch, epoch+int64(4e6)), v.Gen(2, epoch, epoch+int64(4e6))...) {
		for _, doc := range variants(ev.Payload, rng) {
			check("generated", doc)
		}
	}
	for _, c := range viewFilterCases {
		check(c.name, []byte(c.doc))
	}
	if filtered == 0 || filtered == docs {
		t.Fatalf("the filter rejected %d of %d documents", filtered, docs)
	}
	t.Logf("%d documents, %d rejected by the filter", docs, filtered)
}

// fuzzSeeds are the in-code seeds both fuzz targets start from, besides the
// checked-in corpus under testdata/fuzz: generated events of both workloads
// and a few of the variants the differential test derives from them.
func fuzzSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	y := NewYahoo(DefaultYahooConfig())
	v := NewVideo(DefaultVideoConfig())
	for _, ev := range append(y.Gen(0, epoch, epoch+int64(1e6)), v.Gen(0, epoch, epoch+int64(1e6))...) {
		f.Add(ev.Payload)
		vs := variants(ev.Payload, rng)
		for k := 0; k < 8; k++ {
			f.Add(vs[rng.Intn(len(vs))])
		}
	}
}

// checkAgainstJSON is the property both fuzz targets hold the walker to:
// whatever the bytes, it returns (a panic or an index past the payload fails
// the run by itself), and a document that it and encoding/json both accept
// yields the same key and time from both.
func checkAgainstJSON(t *testing.T, doc []byte, got, j verdict) {
	if got.accepted && got.judged && j.accepted && j.judged && !got.same(j) {
		t.Fatalf("%q\n\twalker %+v\n\tencoding/json %+v", doc, got, j)
	}
}

func FuzzParseViewEvent(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		got := scanView(doc)
		if ad, at, kept := walkViewEvent(doc); kept != got.accepted || string(ad) != got.key || at != got.time {
			t.Fatalf("%q\n\tfiltered %+v, walked (%q, %d, %v)", doc, got, ad, at, kept)
		}
		j := jsonVerdict(doc, "ad_id", "event_time", "event_type")
		checkAgainstJSON(t, doc, got, j)
		// Keeping an event that encoding/json reads as a click or a
		// purchase would change the job's counts.
		if members, ok := jsonMembers(doc); got.accepted && ok && j.judged && !j.accepted && len(members["event_type"]) == 1 {
			t.Fatalf("%q\n\tkept, but encoding/json reads event_type %v", doc, members["event_type"][0])
		}
	})
}

func FuzzParseHeartbeat(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkAgainstJSON(t, doc, scanHeartbeat(doc), jsonVerdict(doc, "session_id", "ts", ""))
	})
}
