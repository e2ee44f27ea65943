package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/feedback"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// instance is one QFE problem: the example pair (D, R) and the query the
// simulated user has in mind.
type instance struct {
	Name   string
	DB     *db.Database
	R      *relation.Relation
	Target *algebra.Query
}

func instanceOf(sc *scenario.Scenario) instance {
	return instance{Name: sc.Name, DB: sc.DB, R: sc.R, Target: sc.Target}
}

// outcome is what one session ended with — the fields of the outcome
// digest. Nothing time-dependent belongs here: the digest of a seed must be
// identical across runs, traced or not, so any wall-clock budget or other
// nondeterminism that changes a session shows as a different digest.
type outcome struct {
	Input      int // index into the workload's input list
	Pass       int
	Name       string
	Refused    bool // no candidate query (service's documented 400)
	Rounds     int
	ModCost    int
	Found      bool
	Ambiguous  bool
	Identified string // identified query's key, "" when none
}

func (o outcome) line() string {
	return fmt.Sprintf("%d %d %s refused=%t rounds=%d modcost=%d found=%t ambiguous=%t query=%q",
		o.Input, o.Pass, o.Name, o.Refused, o.Rounds, o.ModCost, o.Found, o.Ambiguous, o.Identified)
}

// digest hashes the outcomes in input order.
func digest(outs []outcome) string {
	s := append([]outcome(nil), outs...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Input != s[j].Input {
			return s[i].Input < s[j].Input
		}
		return s[i].Pass < s[j].Pass
	})
	h := sha256.New()
	for _, o := range s {
		fmt.Fprintln(h, o.line())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkRound asserts, for a round of the target's own join-schema group,
// that the target's result on D′ is among the presented results: target
// feedback can only winnow it away if the engine lost it. Rounds of other
// groups legitimately exclude it (§6.2 winnows group by group).
func checkRound(in instance, round *core.Round) []string {
	if len(round.View.Queries) == 0 ||
		round.View.Queries[0].JoinSchemaKey() != in.Target.JoinSchemaKey() {
		return nil
	}
	_, ok, err := feedback.Target{Query: in.Target}.Choose(round.View)
	if err != nil {
		return []string{fmt.Sprintf("%s round %d: evaluating the target on D': %v", in.Name, round.Seq, err)}
	}
	if !ok {
		return []string{fmt.Sprintf("%s round %d: target result missing from the presented results", in.Name, round.Seq)}
	}
	return nil
}

// checkOutcome asserts the convergence invariants of a session that had the
// target among its candidates and followed target feedback: it converged;
// the final class, when in the target's join-schema group, contains the
// target; and an identified same-group query is result-equivalent to the
// target on D. (A session may legitimately converge on a query of another
// join schema that agreed with the target on every presented D′.)
func checkOutcome(in instance, out *core.Outcome) []string {
	if !out.Found {
		return []string{in.Name + ": session ended not-found although the target was a candidate and feedback followed it"}
	}
	var bad []string
	group, key := in.Target.JoinSchemaKey(), in.Target.Key()
	sameGroup, contains := false, false
	for _, q := range out.Remaining {
		sameGroup = sameGroup || q.JoinSchemaKey() == group
		contains = contains || q.Key() == key
	}
	if sameGroup && !contains {
		bad = append(bad, in.Name+": converged class in the target's join-schema group does not contain the target")
	}
	if q := out.Query; q != nil && q.JoinSchemaKey() == group && q.Key() != key {
		want, err := in.Target.Evaluate(in.DB)
		if err != nil {
			return append(bad, fmt.Sprintf("%s: evaluating the target on D: %v", in.Name, err))
		}
		got, err := q.Evaluate(in.DB)
		if err != nil || !got.BagEqual(want) {
			bad = append(bad, in.Name+": identified same-group query is not result-equivalent to the target on D")
		}
	}
	return bad
}

// checkIdentified asserts that a query the service identified evaluates to
// R on D — every candidate qbo generates does, so the winner must too.
func checkIdentified(in instance, q *algebra.Query) []string {
	got, err := q.Evaluate(in.DB)
	if err != nil {
		return []string{fmt.Sprintf("%s: evaluating the identified query on D: %v", in.Name, err)}
	}
	if !got.BagEqual(in.R) {
		return []string{fmt.Sprintf("%s: identified query %s does not produce R on D", in.Name, q.SQL())}
	}
	return nil
}
