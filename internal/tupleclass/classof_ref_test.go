package tupleclass

import (
	"fmt"
	"slices"

	"qfe/internal/relation"
)

// ClassOf is the row-at-a-time reference for SourceClasses: it classifies a
// tuple value by value, each through its term signature, where
// SourceClasses reads the join's dictionary codes. It also classifies
// tuples that are not joined rows, which the hand-built tests use.
func (s *Space) ClassOf(t relation.Tuple) (Class, error) {
	c := make(Class, len(s.Parts))
	if err := s.classInto(c, t); err != nil {
		return nil, err
	}
	return c, nil
}

// classInto is ClassOf into a caller-provided buffer (len(s.Parts)).
func (s *Space) classInto(c Class, t relation.Tuple) error {
	for i, p := range s.Parts {
		sub := p.SubsetOf(t[p.Col])
		if sub < 0 {
			return fmt.Errorf("tupleclass: value %s of %s falls outside the probed partition",
				t[p.Col], p.Attr)
		}
		c[i] = sub
	}
	return nil
}

// SubsetOf returns the index of the subset whose signature v has, or -1
// for a signature outside the probed space, which cannot happen for values
// of the joined relation or reps.
func (p *Partition) SubsetOf(v relation.Value) int {
	sig := make([]bool, len(p.Terms))
	for i, t := range p.Terms {
		sig[i] = t.Matches(v)
	}
	for i, sub := range p.Subsets {
		if slices.Equal(sub.Sig, sig) {
			return i
		}
	}
	return -1
}
