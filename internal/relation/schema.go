package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation. Name is unqualified inside a
// base table ("salary") and qualified ("Employee.salary") inside a joined
// relation; the package treats names as opaque strings.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// NewSchema builds a schema from alternating name/kind pairs, e.g.
// NewSchema("id", KindInt, "name", KindString).
func NewSchema(pairs ...any) Schema {
	if len(pairs)%2 != 0 {
		panic("relation: NewSchema requires name/kind pairs")
	}
	s := make(Schema, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("relation: NewSchema arg %d: want string name", i))
		}
		kind, ok := pairs[i+1].(Kind)
		if !ok {
			panic(fmt.Sprintf("relation: NewSchema arg %d: want Kind", i+1))
		}
		s = append(s, Column{Name: name, Type: kind})
	}
	return s
}

// IndexOf returns the position of the named column, or -1 if absent.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustIndexOf is IndexOf that panics on a missing column. It is used in
// internal code paths where the column set has already been validated.
func (s Schema) MustIndexOf(name string) int {
	i := s.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: column %q not in schema %v", name, s.Names()))
	}
	return i
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	ns := make([]string, len(s))
	for i, c := range s {
		ns[i] = c.Name
	}
	return ns
}

// Concat returns s followed by t as a new schema.
func (s Schema) Concat(t Schema) Schema {
	u := make(Schema, 0, len(s)+len(t))
	u = append(u, s...)
	u = append(u, t...)
	return u
}

// Qualify returns a copy of the schema with every column name prefixed by
// "table.". Already-qualified names (containing a dot) are left unchanged.
func (s Schema) Qualify(table string) Schema {
	t := make(Schema, len(s))
	for i, c := range s {
		if strings.Contains(c.Name, ".") {
			t[i] = c
		} else {
			t[i] = Column{Name: table + "." + c.Name, Type: c.Type}
		}
	}
	return t
}

// Project returns the sub-schema for the named columns, in the given order.
func (s Schema) Project(names []string) (Schema, error) {
	t := make(Schema, 0, len(names))
	for _, n := range names {
		i := s.IndexOf(n)
		if i < 0 {
			return nil, fmt.Errorf("relation: project: column %q not in schema", n)
		}
		t = append(t, s[i])
	}
	return t, nil
}

// String renders the schema as "name:type, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + ":" + c.Type.String()
	}
	return strings.Join(parts, ", ")
}
