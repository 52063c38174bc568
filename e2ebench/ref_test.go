package main

import (
	"math"
	"testing"
)

// handLibrary is small enough to rank by hand. Action ids by first
// appearance: a=0 b=1 c=2 d=3 e=4; goals G1 G2 G3.
//
//	p0 G1 {a b c}   p1 G1 {a d}   p2 G2 {b d e}   p3 G3 {c e}
func handLibrary() *refLibrary {
	l := newRefLibrary()
	l.add(
		impl{Goal: "G1", Actions: []string{"a", "b", "c"}},
		impl{Goal: "G1", Actions: []string{"a", "d", "a"}}, // duplicate merged
		impl{Goal: "G2", Actions: []string{"b", "d", "e"}},
		impl{Goal: "G3", Actions: []string{"c", "e"}},
	)
	return l
}

type want struct {
	action string
	score  float64
}

func TestReferenceRankingsByHand(t *testing.T) {
	l := handLibrary()
	h := []string{"a", "b"}
	// IS(H) = p0 (overlap 2 of 3), p1 (1 of 2), p2 (1 of 3).
	cases := map[string][]want{
		// completeness 2/3, 1/2, 1/3: emit c, then d, then e (d already out).
		"focus-cmp": {{"c", 2.0 / 3}, {"d", 0.5}, {"e", 1.0 / 3}},
		// closeness 1, 1, 1/2: p0 and p1 tie on score and missing count,
		// so implementation id decides.
		"focus-cl": {{"c", 1}, {"d", 1}, {"e", 0.5}},
		// c gets 2 (p0); d gets 1 (p1) + 1 (p2); e gets 1 (p2); c and d
		// tie and action id decides.
		"breadth": {{"c", 2}, {"d", 2}, {"e", 1}},
		// Profile over GS(H) = {G1, G2}: (2+1, 1) = (3, 1). Vectors:
		// c (1, 0), d (1, 1), e (0, 1) — p3 is G3's, outside GS(H).
		"best-match": {
			{"c", 3/math.Sqrt(10) - 1},
			{"d", 4/math.Sqrt(20) - 1},
			{"e", 1/math.Sqrt(10) - 1},
		},
	}
	for strategy, exp := range cases {
		got, err := l.recommend(strategy, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(exp) {
			t.Fatalf("%s: %d results, want %d", strategy, len(got), len(exp))
		}
		items := make([]recItem, len(got))
		for i, g := range got {
			if l.names[g.action] != exp[i].action || math.Abs(g.score-exp[i].score) > 1e-12 {
				t.Errorf("%s[%d] = %s %v, want %s %v", strategy, i, l.names[g.action], g.score, exp[i].action, exp[i].score)
			}
			items[i] = recItem{Action: l.names[g.action], Score: g.score}
		}
		if err := l.checkAgainstReference(strategy, items, got, 10); err != nil {
			t.Errorf("%s: reference rejects itself: %v", strategy, err)
		}
		if err := checkProperties(items, h, 10); err != nil {
			t.Errorf("%s: %v", strategy, err)
		}
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	l := handLibrary()
	h := []string{"a", "b"}
	ref, err := l.recommend("breadth", h)
	if err != nil {
		t.Fatal(err)
	}
	swapped := []recItem{{"d", 2}, {"c", 2}, {"e", 1}}
	if l.checkAgainstReference("breadth", swapped, ref, 10) == nil {
		t.Error("a tie broken against action id passed the reference check")
	}
	if l.checkAgainstReference("breadth", []recItem{{"c", 2}, {"d", 2.5}, {"e", 1}}, ref, 10) == nil {
		t.Error("a wrong score passed the reference check")
	}
	if l.checkAgainstReference("breadth", []recItem{{"c", 2}, {"d", 2}}, ref, 10) == nil {
		t.Error("a short list passed the reference check")
	}
	for name, items := range map[string][]recItem{
		"too many":    {{"c", 2}, {"d", 2}, {"e", 1}},
		"in activity": {{"a", 2}},
		"duplicate":   {{"c", 2}, {"c", 2}},
		"unordered":   {{"e", 1}, {"c", 2}},
	} {
		k := 10
		if name == "too many" {
			k = 2
		}
		if checkProperties(items, h, k) == nil {
			t.Errorf("checkProperties accepted a list with %s", name)
		}
	}
}
