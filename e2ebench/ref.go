package main

import (
	"fmt"
	"math"
	"sort"
)

// refLibrary is the benchmark's own model of the library goalrecd serves,
// built from the implementations the benchmark generated. Ids follow the
// documented interning rule: an action's id is its order of first
// appearance, scanning implementations in file order and each
// implementation's actions as listed; an implementation's id is its
// position. The scorers below are brute force: every query scans every
// implementation.
type refLibrary struct {
	ids   map[string]int
	names []string
	goals map[string]int
	impls []refImpl
}

type refImpl struct {
	goal    int
	actions []int // distinct, ascending id
}

func newRefLibrary() *refLibrary {
	return &refLibrary{ids: map[string]int{}, goals: map[string]int{}}
}

// add appends implementations in the order the server applies them.
func (l *refLibrary) add(impls ...impl) {
	for _, im := range impls {
		acts := make([]int, 0, len(im.Actions))
		seen := map[int]bool{}
		for _, name := range im.Actions {
			id, ok := l.ids[name]
			if !ok {
				id = len(l.names)
				l.ids[name] = id
				l.names = append(l.names, name)
			}
			if !seen[id] {
				seen[id] = true
				acts = append(acts, id)
			}
		}
		sort.Ints(acts)
		g, ok := l.goals[im.Goal]
		if !ok {
			g = len(l.goals)
			l.goals[im.Goal] = g
		}
		l.impls = append(l.impls, refImpl{goal: g, actions: acts})
	}
}

// scored is one reference recommendation.
type scored struct {
	action int
	score  float64
}

// activitySet resolves names to a dense membership table over action ids.
func (l *refLibrary) activitySet(activity []string) []bool {
	h := make([]bool, len(l.names))
	for _, name := range activity {
		if id, ok := l.ids[name]; ok {
			h[id] = true
		}
	}
	return h
}

func overlap(actions []int, h []bool) int {
	n := 0
	for _, a := range actions {
		if h[a] {
			n++
		}
	}
	return n
}

// recommendLimit is recommend over the first limit implementations: the
// library as it stood at an earlier epoch.
func (l *refLibrary) recommendLimit(strategy string, activity []string, limit int) ([]scored, error) {
	v := *l
	v.impls = l.impls[:limit]
	return v.recommend(strategy, activity)
}

// recommend ranks activity with the named strategy: the reference for
// every response the benchmark checks. candidates is the full scored
// candidate set, best first; the first k of it are the expected answer.
func (l *refLibrary) recommend(strategy string, activity []string) ([]scored, error) {
	h := l.activitySet(activity)
	switch strategy {
	case "focus-cmp", "focus-cl":
		return l.focus(strategy == "focus-cl", h), nil
	case "breadth":
		return l.breadth(h), nil
	case "best-match":
		return l.bestMatch(h), nil
	}
	return nil, fmt.Errorf("reference: unknown strategy %q", strategy)
}

// focus is Focus_cmp (Eq. 3, completeness |A∩H|/|A|) or Focus_cl (Eq. 4,
// closeness 1/|A−H|) with Algorithm 1's emission: implementations of
// IS(H) that still miss an action rank by score descending, then fewer
// missing actions, then implementation id; the list is filled with each
// implementation's missing actions in ascending action id, skipping
// actions already emitted, each scored with its implementation's score.
// The whole emission order is returned (k cuts it).
func (l *refLibrary) focus(closeness bool, h []bool) []scored {
	type ranked struct {
		id, missing int
		score       float64
	}
	var rs []ranked
	for id, p := range l.impls {
		c := overlap(p.actions, h)
		missing := len(p.actions) - c
		if c == 0 || missing == 0 {
			continue
		}
		score := float64(c) / float64(len(p.actions))
		if closeness {
			score = 1 / float64(missing)
		}
		rs = append(rs, ranked{id: id, missing: missing, score: score})
	}
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.missing != b.missing {
			return a.missing < b.missing
		}
		return a.id < b.id
	})
	var out []scored
	seen := map[int]bool{}
	for _, r := range rs {
		for _, a := range l.impls[r.id].actions {
			if h[a] || seen[a] {
				continue
			}
			seen[a] = true
			out = append(out, scored{action: a, score: r.score})
		}
	}
	return out
}

// breadth is Breadth with the overlap reading of Eq. 6: every
// implementation p of IS(H) adds |A_p ∩ H| to each of its actions outside
// H. Ranking is score descending, then action id.
func (l *refLibrary) breadth(h []bool) []scored {
	sc := map[int]float64{}
	for _, p := range l.impls {
		c := overlap(p.actions, h)
		if c == 0 {
			continue
		}
		for _, a := range p.actions {
			if !h[a] {
				sc[a] += float64(c)
			}
		}
	}
	return rankScores(sc)
}

// bestMatch is Best Match with the cosine distance (Eqs. 8–10): the
// profile of H over the goal space GS(H) counts, per goal, the
// (action of H, implementation of the goal) incidences; a candidate (an
// action sharing an implementation with H, outside H) is the vector of
// how many implementations of each goal of GS(H) contain it. The score is
// the negated cosine distance, sim − 1; ranking is score descending, then
// action id.
func (l *refLibrary) bestMatch(h []bool) []scored {
	profile := map[int]float64{}
	cand := map[int]bool{}
	for _, p := range l.impls {
		c := overlap(p.actions, h)
		if c == 0 {
			continue
		}
		profile[p.goal] += float64(c)
		for _, a := range p.actions {
			if !h[a] {
				cand[a] = true
			}
		}
	}
	type key struct{ a, g int }
	vec := map[key]float64{}
	for _, p := range l.impls {
		if _, ok := profile[p.goal]; !ok {
			continue
		}
		for _, a := range p.actions {
			if cand[a] {
				vec[key{a, p.goal}]++
			}
		}
	}
	dot := map[int]float64{}
	norm := map[int]float64{}
	for k, v := range vec {
		dot[k.a] += v * profile[k.g]
		norm[k.a] += v * v
	}
	pn := 0.0
	for _, v := range profile {
		pn += v * v
	}
	sc := map[int]float64{}
	for a := range cand {
		sc[a] = dot[a]/(math.Sqrt(pn)*math.Sqrt(norm[a])) - 1
	}
	return rankScores(sc)
}

// rankScores orders per-action scores descending, ties by action id.
func rankScores(sc map[int]float64) []scored {
	out := make([]scored, 0, len(sc))
	for a, s := range sc {
		out = append(out, scored{action: a, score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].action < out[j].action
	})
	return out
}

// scoreTolerance is how far a served score may sit from the reference.
// Focus and Breadth scores are exact (a correctly rounded quotient and an
// integer sum); Best Match's cosine passes through square roots and a
// division, whose rounding may differ from the reference's in the last
// bits.
const scoreTolerance = 1e-9

// recItem is one served recommendation.
type recItem struct {
	Action string  `json:"action"`
	Score  float64 `json:"score"`
}

// checkProperties verifies what must hold of any ranking: at most k
// items, none from the activity, no duplicates, scores non-increasing.
func checkProperties(items []recItem, activity []string, k int) error {
	if len(items) > k {
		return fmt.Errorf("%d items for k=%d", len(items), k)
	}
	inH := map[string]bool{}
	for _, a := range activity {
		inH[a] = true
	}
	seen := map[string]bool{}
	for i, it := range items {
		if inH[it.Action] {
			return fmt.Errorf("item %d %q is in the activity", i, it.Action)
		}
		if seen[it.Action] {
			return fmt.Errorf("item %d %q is a duplicate", i, it.Action)
		}
		seen[it.Action] = true
		if i > 0 && it.Score > items[i-1].Score {
			return fmt.Errorf("item %d score %v above item %d score %v", i, it.Score, i-1, items[i-1].Score)
		}
	}
	return nil
}

// checkAgainstReference compares a served top-k with the reference
// ranking ref. Served and reference lists must name the same actions in
// the same order with scores within scoreTolerance. For Best Match,
// candidates whose reference scores lie within the tolerance of each other
// are mathematically tied up to rounding (for example two actions whose
// goal vectors are parallel), so there the served order within such a
// group may follow the server's own rounding; the served list must still
// be a valid top-k of the reference and break exact ties of its own
// scores by action id.
func (l *refLibrary) checkAgainstReference(strategy string, items []recItem, ref []scored, k int) error {
	want := ref
	if len(want) > k {
		want = want[:k]
	}
	if len(items) != len(want) {
		return fmt.Errorf("%s: %d items, reference has %d", strategy, len(items), len(want))
	}
	exact := strategy != "best-match"
	refScore := make(map[int]float64, len(ref))
	for _, r := range ref {
		refScore[r.action] = r.score
	}
	for i, it := range items {
		id, ok := l.ids[it.Action]
		if !ok {
			return fmt.Errorf("%s: item %d %q is not in the library", strategy, i, it.Action)
		}
		rs, ok := refScore[id]
		if !ok {
			return fmt.Errorf("%s: item %d %q is not a candidate", strategy, i, it.Action)
		}
		if math.Abs(rs-it.Score) > scoreTolerance {
			return fmt.Errorf("%s: item %d %q score %v, reference %v", strategy, i, it.Action, it.Score, rs)
		}
		if exact {
			if id != want[i].action {
				return fmt.Errorf("%s: item %d is %q, reference %q", strategy, i, it.Action, l.names[want[i].action])
			}
			continue
		}
		if math.Abs(want[i].score-rs) > scoreTolerance {
			return fmt.Errorf("%s: item %d %q scores %v, reference rank %d scores %v",
				strategy, i, it.Action, rs, i, want[i].score)
		}
		if i > 0 && it.Score == items[i-1].Score && l.ids[items[i-1].Action] > id {
			return fmt.Errorf("%s: tie at items %d/%d not broken by action id", strategy, i-1, i)
		}
	}
	return nil
}
