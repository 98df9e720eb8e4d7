package workload

import "strconv"

// The two parsers the workloads shipped with before the shared field walker
// (scan.go), kept unchanged as oracles for TestScannerMatchesReference.
// Their known defects — a backslash-escaped quote desynchronises both, an
// unterminated document or number is accepted, the video one matches field
// names inside string values — are what the differential test's
// encoding/json arbitration is for.

// refAdEvent is the projection of the JSON document the pipeline needs.
type refAdEvent struct {
	adID      string
	eventType string
	eventTime int64
}

// refParseAdEvent extracts ad_id, event_type and event_time from the JSON
// document with a purpose-built scanner: the benchmark measures the cost of
// deserialization on the critical path, so the parser is real (validates
// structure, handles arbitrary field order) but does not build a generic
// document tree.
func refParseAdEvent(b []byte) (refAdEvent, bool) {
	var ev refAdEvent
	var seen int
	i := 0
	n := len(b)
	if n == 0 || b[0] != '{' {
		return ev, false
	}
	i = 1
	for i < n {
		// Find key.
		for i < n && (b[i] == ',' || b[i] == ' ') {
			i++
		}
		if i < n && b[i] == '}' {
			break
		}
		if i >= n || b[i] != '"' {
			return ev, false
		}
		keyStart := i + 1
		j := keyStart
		for j < n && b[j] != '"' {
			j++
		}
		if j >= n {
			return ev, false
		}
		key := b[keyStart:j]
		i = j + 1
		if i >= n || b[i] != ':' {
			return ev, false
		}
		i++
		// Parse value (string or number).
		if i < n && b[i] == '"' {
			valStart := i + 1
			j = valStart
			for j < n && b[j] != '"' {
				j++
			}
			if j >= n {
				return ev, false
			}
			switch string(key) {
			case "ad_id":
				ev.adID = string(b[valStart:j])
				seen++
			case "event_type":
				ev.eventType = string(b[valStart:j])
				seen++
			}
			i = j + 1
		} else {
			j = i
			for j < n && b[j] != ',' && b[j] != '}' {
				j++
			}
			if string(key) == "event_time" {
				v, err := strconv.ParseInt(string(b[i:j]), 10, 64)
				if err != nil {
					return ev, false
				}
				ev.eventTime = v
				seen++
			}
			i = j
		}
	}
	return ev, seen == 3
}

// refParseHeartbeat extracts session_id and ts.
func refParseHeartbeat(b []byte) (string, int64, bool) {
	session, ok := refScanStringField(b, `"session_id":"`)
	if !ok {
		return "", 0, false
	}
	tsStr, ok := refScanRawField(b, `"ts":`)
	if !ok {
		return "", 0, false
	}
	ts, err := strconv.ParseInt(tsStr, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return session, ts, true
}

func refScanStringField(b []byte, prefix string) (string, bool) {
	idx := refIndexOf(b, prefix)
	if idx < 0 {
		return "", false
	}
	start := idx + len(prefix)
	end := start
	for end < len(b) && b[end] != '"' {
		end++
	}
	if end >= len(b) {
		return "", false
	}
	return string(b[start:end]), true
}

func refScanRawField(b []byte, prefix string) (string, bool) {
	idx := refIndexOf(b, prefix)
	if idx < 0 {
		return "", false
	}
	start := idx + len(prefix)
	end := start
	for end < len(b) && b[end] != ',' && b[end] != '}' {
		end++
	}
	return string(b[start:end]), end > start
}

func refIndexOf(b []byte, sub string) int {
	n, m := len(b), len(sub)
	for i := 0; i+m <= n; i++ {
		if string(b[i:i+m]) == sub {
			return i
		}
	}
	return -1
}

// The renderers and the session sampler the generators shipped with before
// render.go's digit tables and the bucketed search, kept unchanged as oracles
// for TestRendererMatchesReference and TestSessionSamplerMatchesBinarySearch.

func refAppendEvent(dst []byte, h uint64, ad, etype string, at int64) []byte {
	dst = append(dst, `{"user_id":"user-`...)
	dst = strconv.AppendUint(dst, h%100000, 10)
	dst = append(dst, `","page_id":"page-`...)
	dst = strconv.AppendUint(dst, (h>>16)%1000, 10)
	dst = append(dst, `","ad_id":"`...)
	dst = append(dst, ad...)
	dst = append(dst, `","ad_type":"banner","event_type":"`...)
	dst = append(dst, etype...)
	dst = append(dst, `","event_time":`...)
	dst = strconv.AppendInt(dst, at, 10)
	dst = append(dst, `,"ip_address":"10.`...)
	dst = strconv.AppendUint(dst, (h>>40)&255, 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, (h>>48)&255, 10)
	dst = append(dst, `.1"}`...)
	return dst
}

func (v *Video) refAppendHeartbeat(dst []byte, session int, event string, bitrate uint64, at int64) []byte {
	dst = append(dst, `{"session_id":"session-`...)
	dst = strconv.AppendInt(dst, int64(session), 10)
	dst = append(dst, `","event":"`...)
	dst = append(dst, event...)
	dst = append(dst, `","bitrate_kbps":`...)
	dst = strconv.AppendUint(dst, bitrate, 10)
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, at, 10)
	dst = append(dst, ',')
	dst = append(dst, v.padding...)
	dst = append(dst, '}')
	return dst
}

// refSampleSession maps a uniform 32-bit draw to a session index via the CDF.
func (v *Video) refSampleSession(u uint64) int {
	u &= (1 << 32) - 1
	lo, hi := 0, len(v.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
