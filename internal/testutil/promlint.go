package testutil

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is a small, dependency-free parser and linter for the
// Prometheus text exposition format (version 0.0.4). Tests lint every
// exposition they scrape with CheckExposition and use ParseExposition
// to make end-to-end assertions against scraped values.

// Sample is one parsed series sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for key, or "".
func (s Sample) Label(key string) string { return s.Labels[key] }

// Exposition is a parsed scrape: samples in document order plus the
// HELP/TYPE metadata by family name.
type Exposition struct {
	Samples []Sample
	Types   map[string]string
	Helps   map[string]string
	// HelpCounts counts HELP lines per family. The format allows at most
	// one; a labeled family that re-emits its HELP per label value (a
	// classic per-peer registration bug) parses fine — the last line wins
	// — so the count is kept for CheckExposition to reject.
	HelpCounts map[string]int
}

// Find returns the samples named name (exact match, so histogram
// components are addressed as name_bucket / name_sum / name_count).
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the single sample named name whose labels include every
// pair in want (given as alternating key, value). Errors if no sample or
// more than one matches.
func (e *Exposition) Value(name string, want ...string) (float64, error) {
	if len(want)%2 != 0 {
		return 0, fmt.Errorf("obs: Value takes key/value pairs")
	}
	var found []Sample
outer:
	for _, s := range e.Find(name) {
		for i := 0; i < len(want); i += 2 {
			if s.Labels[want[i]] != want[i+1] {
				continue outer
			}
		}
		found = append(found, s)
	}
	switch len(found) {
	case 0:
		return 0, fmt.Errorf("obs: no sample %s matching %v", name, want)
	case 1:
		return found[0].Value, nil
	default:
		return 0, fmt.Errorf("obs: %d samples %s match %v", len(found), name, want)
	}
}

// ParseExposition parses Prometheus text exposition format, returning the
// samples and metadata. Parse errors carry the 1-based line number.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string), Helps: make(map[string]string), HelpCounts: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, exp); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

func parseComment(line string, exp *Exposition) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		exp.Helps[fields[2]] = help
		exp.HelpCounts[fields[2]]++
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := exp.Types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		exp.Types[fields[2]] = fields[3]
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: make(map[string]string)}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string, out map[string]string) error {
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(rest[:eq])
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return fmt.Errorf("unterminated label value in %q", body)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '\\' {
				if rest == "" {
					return fmt.Errorf("dangling escape in %q", body)
				}
				switch rest[0] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(rest[0])
				default:
					return fmt.Errorf("bad escape \\%c in %q", rest[0], body)
				}
				rest = rest[1:]
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if _, dup := out[key]; dup {
			return fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		rest = strings.TrimSpace(rest)
	}
	return nil
}

func validMetricName(s string) bool {
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}

func validLabelName(s string) bool {
	if strings.HasPrefix(s, "__") {
		return false // reserved
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}

// baseName strips a histogram component suffix, returning the family the
// sample belongs to for TYPE lookup.
func baseName(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// nonBaseUnitSuffixes maps discouraged unit suffixes to the Prometheus
// base unit a family should use instead: time in seconds, size in bytes,
// fractions as ratios.
var nonBaseUnitSuffixes = map[string]string{
	"_ms": "_seconds", "_millis": "_seconds", "_milliseconds": "_seconds",
	"_us": "_seconds", "_micros": "_seconds", "_microseconds": "_seconds",
	"_ns": "_seconds", "_nanos": "_seconds", "_nanoseconds": "_seconds",
	"_kb": "_bytes", "_kib": "_bytes", "_mb": "_bytes", "_mib": "_bytes",
	"_gb": "_bytes", "_gib": "_bytes",
	"_pct": "_ratio", "_percent": "_ratio",
}

// histogramUnitSuffixes are the base-unit suffixes a histogram family name
// must carry — a bucketed distribution is always of a measured quantity.
var histogramUnitSuffixes = []string{"_seconds", "_bytes", "_ratio"}

// checkUnitSuffix enforces the unit-suffix conventions on one family name:
// no non-base units anywhere (counters are checked after stripping
// _total), _total only on counters, and a base-unit suffix on histograms.
func checkUnitSuffix(fam, typ string) error {
	base := fam
	if typ == "counter" {
		base = strings.TrimSuffix(fam, "_total")
	} else if strings.HasSuffix(fam, "_total") {
		return fmt.Errorf("%s %s must not end in _total (reserved for counters)", typ, fam)
	}
	for suf, want := range nonBaseUnitSuffixes {
		if strings.HasSuffix(base, suf) {
			return fmt.Errorf("%s %s uses non-base unit %s; use %s", typ, fam, suf, want)
		}
	}
	if typ == "histogram" {
		for _, suf := range histogramUnitSuffixes {
			if strings.HasSuffix(fam, suf) {
				return nil
			}
		}
		return fmt.Errorf("histogram %s lacks a base-unit suffix (%s)",
			fam, strings.Join(histogramUnitSuffixes, ", "))
	}
	return nil
}

// CheckExposition parses and lints a scrape: every sample must belong to a
// family with TYPE and non-empty HELP metadata (emitted exactly once — a
// labeled family repeating its HELP per label value is rejected), counters
// must end in _total, family names must use Prometheus base units
// (_seconds, _bytes, _ratio — never _ms, _kb, ...; _total only on
// counters; histograms carry a unit suffix), histograms must have a +Inf
// bucket and matching _sum/_count, label sets must not repeat within a
// family, every series of a family must use the same label keys (the
// bucket-only le aside), le must not appear outside histogram buckets,
// and families must not interleave.
func CheckExposition(r io.Reader) error {
	exp, err := ParseExposition(r)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)      // family → series started
	series := make(map[string]bool)    // name{labels} → present
	histInf := make(map[string]bool)   // histogram family → saw +Inf bucket
	histParts := make(map[string]int)  // histogram family → sum/count parts
	famKeys := make(map[string]string) // family → canonical label key set
	var order []string                 // family first-appearance order
	lastFamily := ""
	for _, s := range exp.Samples {
		fam := baseName(s.Name, exp.Types)
		typ, ok := exp.Types[fam]
		if !ok {
			return fmt.Errorf("sample %s has no TYPE metadata", s.Name)
		}
		if typ == "counter" && !strings.HasSuffix(fam, "_total") {
			return fmt.Errorf("counter %s should end in _total", fam)
		}
		if fam != lastFamily && !seen[fam] {
			if strings.TrimSpace(exp.Helps[fam]) == "" {
				return fmt.Errorf("family %s has no HELP text", fam)
			}
			if n := exp.HelpCounts[fam]; n > 1 {
				return fmt.Errorf("family %s has %d HELP lines (one per family; repeated per label value?)", fam, n)
			}
			if err := checkUnitSuffix(fam, typ); err != nil {
				return err
			}
		}
		if fam != lastFamily {
			if seen[fam] {
				return fmt.Errorf("family %s interleaves with other families", fam)
			}
			seen[fam] = true
			order = append(order, fam)
			lastFamily = fam
		}
		key := s.Name + "{" + canonLabels(s.Labels) + "}"
		if series[key] {
			return fmt.Errorf("duplicate series %s", key)
		}
		series[key] = true
		isBucket := typ == "histogram" && strings.HasSuffix(s.Name, "_bucket")
		if !isBucket && s.Labels["le"] != "" {
			return fmt.Errorf("series %s carries the reserved le label outside a histogram bucket", key)
		}
		// Label-name hygiene: every series of a family must present the
		// same label keys (le excluded — it exists only on buckets), so a
		// labeled family (per-peer, per-shard) can be aggregated across
		// its values without holes.
		ks := labelKeySet(s.Labels)
		if prev, ok := famKeys[fam]; !ok {
			famKeys[fam] = ks
		} else if prev != ks {
			return fmt.Errorf("family %s mixes label key sets {%s} and {%s}", fam, prev, ks)
		}
		if typ == "histogram" {
			switch {
			case isBucket:
				if s.Labels["le"] == "" {
					return fmt.Errorf("histogram bucket %s lacks le label", key)
				}
				if s.Labels["le"] == "+Inf" {
					histInf[fam] = true
				}
			case strings.HasSuffix(s.Name, "_sum"), strings.HasSuffix(s.Name, "_count"):
				histParts[fam]++
			}
		}
	}
	for _, fam := range order {
		if exp.Types[fam] == "histogram" {
			if !histInf[fam] {
				return fmt.Errorf("histogram %s lacks a +Inf bucket", fam)
			}
			if histParts[fam] == 0 {
				return fmt.Errorf("histogram %s lacks _sum/_count", fam)
			}
		}
	}
	return nil
}

// labelKeySet renders a sample's label keys (le excluded) sorted and
// comma-joined, the family-consistency identity CheckExposition compares.
func labelKeySet(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func canonLabels(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, m[k])
	}
	return b.String()
}
