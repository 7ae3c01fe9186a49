package testutil

import (
	"strings"
	"testing"
)

func TestLintCatchesViolations(t *testing.T) {
	bad := map[string]string{
		"no-type":        "foo_total 1\n",
		"counter-suffix": "# TYPE foo counter\n# HELP foo h\nfoo 1\n",
		"dup-series":     "# TYPE foo gauge\nfoo 1\nfoo 2\n",
		"interleave":     "# TYPE a gauge\n# TYPE b gauge\na 1\nb 1\na{x=\"1\"} 2\n",
		"no-inf":         "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bad-name":       "# TYPE 9x gauge\n9x 1\n",
		"bad-value":      "# TYPE foo gauge\nfoo abc\n",
		// A labeled family re-emitting HELP per label value: the classic
		// per-peer registration bug the HELP-count rule exists for.
		"dup-help": "# HELP g h\n# TYPE g gauge\n# HELP g h\ng{id=\"a\"} 1\ng{id=\"b\"} 2\n",
		// Series of one family disagreeing on label keys.
		"mixed-keys": "# HELP g h\n# TYPE g gauge\ng{a=\"x\",b=\"z\"} 1.5\ng 2\n",
		// The reserved le label outside a histogram bucket.
		"stray-le": "# HELP g h\n# TYPE g gauge\ng{le=\"1\"} 1\n",
	}
	for name, doc := range bad {
		if err := CheckExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted bad exposition:\n%s", name, doc)
		}
	}
	good := "# HELP g h\n# TYPE g gauge\ng{a=\"x\\\"y\",b=\"z\"} 1.5\ng{a=\"q\",b=\"r\"} 2\n" +
		"# HELP s_seconds h\n# TYPE s_seconds histogram\n" +
		"s_seconds_bucket{id=\"p1\",le=\"1\"} 1\ns_seconds_bucket{id=\"p1\",le=\"+Inf\"} 1\n" +
		"s_seconds_sum{id=\"p1\"} 0.5\ns_seconds_count{id=\"p1\"} 1\n" +
		"s_seconds_bucket{id=\"p2\",le=\"1\"} 0\ns_seconds_bucket{id=\"p2\",le=\"+Inf\"} 0\n" +
		"s_seconds_sum{id=\"p2\"} 0\ns_seconds_count{id=\"p2\"} 0\n"
	if err := CheckExposition(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected good exposition: %v", err)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	exp, err := ParseExposition(strings.NewReader(
		"# TYPE m gauge\nm{k=\"a\\\\b\\\"c\\nd\"} 7 1234567890\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Samples) != 1 {
		t.Fatalf("samples: %v", exp.Samples)
	}
	want := "a\\b\"c\nd"
	if got := exp.Samples[0].Labels["k"]; got != want {
		t.Fatalf("label k=%q want %q", got, want)
	}
	if exp.Samples[0].Value != 7 {
		t.Fatalf("value=%v", exp.Samples[0].Value)
	}
}

func TestLintStrictConventions(t *testing.T) {
	bad := map[string]string{
		"no-help":         "# TYPE foo_total counter\nfoo_total 1\n",
		"empty-help":      "# HELP foo_total \n# TYPE foo_total counter\nfoo_total 1\n",
		"gauge-total":     "# HELP g_total h\n# TYPE g_total gauge\ng_total 1\n",
		"ms-suffix":       "# HELP lat_ms h\n# TYPE lat_ms gauge\nlat_ms 1\n",
		"counter-ms":      "# HELP lat_ms_total h\n# TYPE lat_ms_total counter\nlat_ms_total 1\n",
		"kb-suffix":       "# HELP cap_kb h\n# TYPE cap_kb gauge\ncap_kb 1\n",
		"hist-no-unit":    "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"hist-us-suffix":  "# HELP h_us h\n# TYPE h_us histogram\nh_us_bucket{le=\"+Inf\"} 1\nh_us_sum 1\nh_us_count 1\n",
		"histogram-total": "# HELP h_seconds_total h\n# TYPE h_seconds_total histogram\nh_seconds_total_bucket{le=\"+Inf\"} 1\nh_seconds_total_sum 1\nh_seconds_total_count 1\n",
	}
	for name, doc := range bad {
		if err := CheckExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: strict lint accepted:\n%s", name, doc)
		}
	}
	good := map[string]string{
		"seconds-hist": "# HELP h_seconds h\n# TYPE h_seconds histogram\nh_seconds_bucket{le=\"+Inf\"} 1\nh_seconds_sum 1\nh_seconds_count 1\n",
		"bytes-gauge":  "# HELP cap_bytes h\n# TYPE cap_bytes gauge\ncap_bytes 1\n",
		"plain-total":  "# HELP ops_total h\n# TYPE ops_total counter\nops_total 1\n",
		"ratio-hist":   "# HELP hit_ratio h\n# TYPE hit_ratio histogram\nhit_ratio_bucket{le=\"+Inf\"} 1\nhit_ratio_sum 1\nhit_ratio_count 1\n",
	}
	for name, doc := range good {
		if err := CheckExposition(strings.NewReader(doc)); err != nil {
			t.Errorf("%s: strict lint rejected good exposition: %v", name, err)
		}
	}
}
