// Package services implements Qurator's service fabric (paper §5): the
// user-extensible QA and Annotation operators are exposed as services that
// all share one interface and one message schema — the paper uses WSDL and
// an XML schema; here the common contract is the QualityService interface
// and the Envelope XML message, "effectively a concrete model for the data
// sets, evidence types and annotation maps described in abstract terms".
//
// Services can be invoked in-process or over HTTP (cmd/quratord hosts
// them); the Registry plays the role of Taverna's service scavenger,
// discovering the services deployed on a host.
package services

import (
	"encoding/xml"
	"fmt"
	"strconv"

	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

// Envelope is the common message schema exchanged by all Qurator services.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	// Service and Operation identify the call (informational on responses).
	Service   string `xml:"service,attr,omitempty"`
	Operation string `xml:"operation,attr,omitempty"`
	// Config carries per-call parameters (e.g. repositoryRef, conditions).
	Config Config `xml:"Config"`
	// DataSet is the ordered list of data items D.
	DataSet DataSet `xml:"DataSet"`
	// Annotations is the annotation map serialised row-wise.
	Annotations AnnotationMapXML `xml:"AnnotationMap"`
	// Groups carries splitter outputs (one named data set + map each).
	Groups []Group `xml:"Group,omitempty"`
	// Error carries a fault message on responses.
	Error string `xml:"Error,omitempty"`

	// The typed form, set by NewEnvelope/SetMap/SetGroups: in-process
	// calls hand maps over by reference and only Marshal encodes them, so
	// no string is formatted or parsed unless the envelope crosses a wire.
	// While set, it takes precedence over DataSet/Annotations/Groups.
	m      *evidence.Map
	groups []namedMap // non-nil once SetGroups ran, even with no groups
}

// namedMap is one typed splitter output.
type namedMap struct {
	name string
	m    *evidence.Map
}

// Config is a list of named string parameters.
type Config struct {
	Params []Param `xml:"param"`
}

// Param is one configuration parameter.
type Param struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Get returns the named parameter value and whether it was present.
func (c Config) Get(name string) (string, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Set appends or replaces a parameter.
func (c *Config) Set(name, value string) {
	for i, p := range c.Params {
		if p.Name == name {
			c.Params[i].Value = value
			return
		}
	}
	c.Params = append(c.Params, Param{Name: name, Value: value})
}

// DataSet is the ordered item list.
type DataSet struct {
	Items []ItemRef `xml:"item"`
}

// ItemRef references one data item by URI.
type ItemRef struct {
	URI string `xml:"uri,attr"`
}

// AnnotationMapXML is the row-wise serialisation of an evidence.Map.
type AnnotationMapXML struct {
	Entries []Entry `xml:"entry"`
}

// Entry is one (item, key, value) cell.
type Entry struct {
	Item  string `xml:"item,attr"`
	Key   string `xml:"key,attr"`
	Kind  string `xml:"kind,attr"`
	Value string `xml:"value,attr"`
}

// Group is one named splitter output.
type Group struct {
	Name        string           `xml:"name,attr"`
	DataSet     DataSet          `xml:"DataSet"`
	Annotations AnnotationMapXML `xml:"AnnotationMap"`
}

// NewEnvelope builds an envelope carrying the annotation map. The
// envelope keeps m by reference (see SetMap), so the caller must not
// mutate m afterwards.
func NewEnvelope(m *evidence.Map) *Envelope {
	e := &Envelope{}
	e.SetMap(m)
	return e
}

// SetMap makes m the envelope's data set and annotation map. The map is
// kept by reference, not encoded: readers get clones (Map) and Marshal
// encodes it when the envelope goes over a wire. A nil m is an empty map.
func (e *Envelope) SetMap(m *evidence.Map) {
	if m == nil {
		m = evidence.NewMap()
	}
	e.m = m
	e.DataSet, e.Annotations = DataSet{}, AnnotationMapXML{}
}

// Map returns the envelope's annotation map. Every call returns a fresh
// map the caller owns: a clone of the typed map, or one decoded (and
// validated) from the wire form of an unmarshalled envelope. The clone
// is O(1) and copy-on-write, so a reader that only reads copies nothing.
func (e *Envelope) Map() (*evidence.Map, error) {
	if e.m != nil {
		return e.m.Clone(), nil
	}
	return decodeMap(e.DataSet, e.Annotations)
}

// SetGroups makes the splitter outputs the envelope's groups, in the
// given order; names absent from groups are skipped. The maps are kept by
// reference, as in SetMap.
func (e *Envelope) SetGroups(groups map[string]*evidence.Map, order []string) {
	e.groups = make([]namedMap, 0, len(order))
	for _, name := range order {
		m, ok := groups[name]
		if !ok {
			continue
		}
		if m == nil {
			m = evidence.NewMap()
		}
		e.groups = append(e.groups, namedMap{name: name, m: m})
	}
	e.Groups = nil
}

// GroupMaps returns the envelope's groups as fresh maps the caller owns,
// as Map does.
func (e *Envelope) GroupMaps() (map[string]*evidence.Map, error) {
	if e.groups != nil {
		out := make(map[string]*evidence.Map, len(e.groups))
		for _, g := range e.groups {
			out[g.name] = g.m.Clone()
		}
		return out, nil
	}
	out := make(map[string]*evidence.Map, len(e.Groups))
	for _, g := range e.Groups {
		m, err := decodeMap(g.DataSet, g.Annotations)
		if err != nil {
			return nil, fmt.Errorf("services: group %q: %w", g.Name, err)
		}
		out[g.Name] = m
	}
	return out, nil
}

func encodeMap(m *evidence.Map) (DataSet, AnnotationMapXML) {
	var ds DataSet
	var am AnnotationMapXML
	keys := m.Keys()
	for _, item := range m.Items() {
		ds.Items = append(ds.Items, ItemRef{URI: item.Value()})
		for _, key := range keys {
			v := m.Get(item, key)
			if v.IsNull() {
				continue
			}
			am.Entries = append(am.Entries, Entry{
				Item:  item.Value(),
				Key:   key.Value(),
				Kind:  v.Kind().String(),
				Value: encodeValue(v),
			})
		}
	}
	return ds, am
}

func decodeMap(ds DataSet, am AnnotationMapXML) (*evidence.Map, error) {
	m := evidence.NewMap()
	for _, it := range ds.Items {
		if it.URI == "" {
			return nil, fmt.Errorf("services: data set item with empty URI")
		}
		m.AddItem(rdf.IRI(it.URI))
	}
	for _, entry := range am.Entries {
		v, err := decodeValue(entry.Kind, entry.Value)
		if err != nil {
			return nil, fmt.Errorf("services: entry (%s, %s): %w", entry.Item, entry.Key, err)
		}
		m.Set(rdf.IRI(entry.Item), rdf.IRI(entry.Key), v)
	}
	return m, nil
}

func encodeValue(v evidence.Value) string {
	if t, ok := v.AsTerm(); ok {
		return t.Value()
	}
	return v.AsString()
}

func decodeValue(kind, raw string) (evidence.Value, error) {
	switch kind {
	case "float":
		v := evidence.String_(raw)
		f, ok := v.AsFloat()
		if !ok {
			return evidence.Null, fmt.Errorf("bad float %q", raw)
		}
		return evidence.Float(f), nil
	case "int":
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return evidence.Null, fmt.Errorf("bad int %q: %v", raw, err)
		}
		return evidence.Int(n), nil
	case "string":
		return evidence.String_(raw), nil
	case "bool":
		switch raw {
		case "true":
			return evidence.Bool(true), nil
		case "false":
			return evidence.Bool(false), nil
		}
		return evidence.Null, fmt.Errorf("bad bool %q", raw)
	case "term":
		return evidence.TermValue(rdf.IRI(raw)), nil
	default:
		return evidence.Null, fmt.Errorf("unknown value kind %q", kind)
	}
}

// Marshal renders the envelope as XML, encoding its typed form into the
// wire fields of a copy: e itself is never written, so a shared (cached)
// envelope may be marshalled concurrently.
func (e *Envelope) Marshal() ([]byte, error) {
	wire := *e
	if e.m != nil {
		wire.DataSet, wire.Annotations = encodeMap(e.m)
	}
	if e.groups != nil {
		wire.Groups = nil
		for _, g := range e.groups {
			ds, am := encodeMap(g.m)
			wire.Groups = append(wire.Groups, Group{Name: g.name, DataSet: ds, Annotations: am})
		}
	}
	return xml.MarshalIndent(&wire, "", "  ")
}

// UnmarshalEnvelope parses an envelope from XML.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := xml.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("services: bad envelope: %w", err)
	}
	return &e, nil
}
