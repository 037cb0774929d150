// Package qvlang implements the declarative XML language for quality
// views (paper §5.1). A quality view is a machine-processable
// specification of an instance of the general quality process pattern: it
// declares annotation operators, quality assertions and condition/action
// pairs purely in terms of the abstract model — no implementation
// references — so the same view can be targeted at different data
// management environments (the compiler performs that targeting).
//
// The concrete syntax follows the paper's fragments:
//
//	<QualityView name="protein-id-quality">
//	  <Annotator servicename="ImprintOutputAnnotator"
//	             servicetype="q:ImprintOutputAnnotation">
//	    <variables repositoryRef="cache" persistent="false">
//	      <var evidence="q:HitRatio"/>
//	      <var evidence="q:Coverage"/>
//	    </variables>
//	  </Annotator>
//	  <QualityAssertion servicename="HR MC score"
//	                    servicetype="q:UniversalPIScore2"
//	                    tagname="HR MC" tagsyntype="q:score">
//	    <variables repositoryRef="cache">
//	      <var variablename="coverage" evidence="q:Coverage"/>
//	    </variables>
//	  </QualityAssertion>
//	  <action name="filter top k score">
//	    <filter>
//	      <condition>ScoreClass in q:high, q:mid and HR_MC &gt; 20</condition>
//	    </filter>
//	  </action>
//	</QualityView>
//
// Views never reference input data sets: a view is applicable to any data
// set for which values of the required evidence types are available.
package qvlang

import (
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"qurator/internal/condition"
	"qurator/internal/ontology"
	"qurator/internal/rdf"
)

// View is a parsed quality-view specification.
type View struct {
	XMLName    xml.Name        `xml:"QualityView"`
	Name       string          `xml:"name,attr"`
	Annotators []AnnotatorDecl `xml:"Annotator"`
	Assertions []AssertionDecl `xml:"QualityAssertion"`
	Actions    []ActionDecl    `xml:"action"`
	Streaming  *StreamingDecl  `xml:"streaming"`
}

// StreamingDecl declares the view's default windowing for streaming
// enactment — either event-time (eventtime + window/session-gap) or
// count-based (count-window). Durations use Go syntax ("30s", "5m").
// Enactment requests may override any field; the declaration only
// supplies defaults, keeping batch enactment of the same view untouched.
type StreamingDecl struct {
	// EventTime names the QualityEvidence subclass carrying each item's
	// event timestamp (epoch millis or RFC 3339), e.g. "q:ObservedAt".
	EventTime string `xml:"eventtime,attr"`
	// Window / Slide size tumbling or sliding event-time windows.
	Window string `xml:"window,attr"`
	Slide  string `xml:"slide,attr"`
	// SessionGap sizes session windows (mutually exclusive with Window).
	SessionGap string `xml:"session-gap,attr"`
	// MaxOutOfOrder bounds the watermark lag; AllowedLateness bounds how
	// long fired windows accept late data (0 = drop all late data).
	MaxOutOfOrder   string `xml:"max-out-of-order,attr"`
	AllowedLateness string `xml:"allowed-lateness,attr"`
	// Late is the late-data policy: "supersede" (default) or "drop".
	Late string `xml:"late,attr"`
	// CountWindow / CountSlide default the count-based configuration when
	// no event-time evidence is declared.
	CountWindow int `xml:"count-window,attr"`
	CountSlide  int `xml:"count-slide,attr"`
}

// AnnotatorDecl declares an annotation operator.
type AnnotatorDecl struct {
	// ServiceName is the local variable name for the operator instance.
	ServiceName string `xml:"servicename,attr"`
	// ServiceType is the operator's class in the IQ ontology
	// (a q:AnnotationFunction subclass).
	ServiceType string `xml:"servicetype,attr"`
	// Variables declares the evidence types the annotator provides and
	// the repository their values go to.
	Variables VarBlock `xml:"variables"`
}

// AssertionDecl declares a quality-assertion operator.
type AssertionDecl struct {
	ServiceName string `xml:"servicename,attr"`
	// ServiceType is the QA's class (a q:QualityAssertion subclass).
	ServiceType string `xml:"servicetype,attr"`
	// TagName is the variable under which the QA's output is visible to
	// action conditions.
	TagName string `xml:"tagname,attr"`
	// TagSynType is the syntactic type of the output: "q:score" or
	// "q:class".
	TagSynType string `xml:"tagsyntype,attr"`
	// TagSemType, for classifications, names the ClassificationModel the
	// labels belong to.
	TagSemType string `xml:"tagsemtype,attr"`
	// Variables declares the input evidence and its repositories.
	Variables VarBlock `xml:"variables"`
}

// VarBlock groups variable declarations with their repository.
type VarBlock struct {
	// RepositoryRef names the annotation repository (default "cache").
	RepositoryRef string `xml:"repositoryRef,attr"`
	// Persistent marks whether annotations outlive the process execution
	// (default true; the §5.1 Imprint annotator sets false).
	Persistent *bool     `xml:"persistent,attr"`
	Vars       []VarDecl `xml:"var"`
}

// Repo returns the repository name, defaulting to "cache".
func (v VarBlock) Repo() string {
	if v.RepositoryRef == "" {
		return "cache"
	}
	return v.RepositoryRef
}

// IsPersistent reports the persistence flag (default true).
func (v VarBlock) IsPersistent() bool {
	return v.Persistent == nil || *v.Persistent
}

// VarDecl declares one evidence variable.
type VarDecl struct {
	// VariableName optionally names the evidence for use in conditions;
	// defaults to the evidence type's local name.
	VariableName string `xml:"variablename,attr"`
	// Evidence is the QualityEvidence subclass (q-name or IRI).
	Evidence string `xml:"evidence,attr"`
}

// ActionDecl declares one condition/action pair.
type ActionDecl struct {
	Name     string        `xml:"name,attr"`
	Filter   *FilterDecl   `xml:"filter"`
	Splitter *SplitterDecl `xml:"splitter"`
}

// FilterDecl is a data-filtering action.
type FilterDecl struct {
	Condition string `xml:"condition"`
}

// SplitterDecl is a data-splitting action.
type SplitterDecl struct {
	Branches []BranchDecl `xml:"branch"`
}

// BranchDecl is one named splitter branch.
type BranchDecl struct {
	Name      string `xml:"name,attr"`
	Condition string `xml:"condition"`
}

// Parse parses a quality-view XML document.
func Parse(data []byte) (*View, error) {
	var v View
	if err := xml.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("qvlang: %w", err)
	}
	if v.Name == "" {
		v.Name = "unnamed-view"
	}
	return &v, nil
}

// Syntactic tag types.
var (
	SynScore = ontology.Q("score")
	SynClass = ontology.Q("class")
)

// ResolvedAssertion is a validated QA declaration with resolved terms.
type ResolvedAssertion struct {
	Decl *AssertionDecl
	// Type is the QA class IRI.
	Type rdf.Term
	// TagKey is the annotation-map key the QA writes: a score-tag IRI for
	// q:score outputs, or the classification-model IRI for q:class.
	TagKey rdf.Term
	// TagVar is the normalised condition identifier for the tag.
	TagVar string
	// Inputs are the resolved evidence types with their repository.
	Inputs []ResolvedVar
}

// ResolvedVar is a validated variable declaration.
type ResolvedVar struct {
	Name       string // normalised identifier
	Evidence   rdf.Term
	Repository string
	Persistent bool
}

// ResolvedAnnotator is a validated annotator declaration.
type ResolvedAnnotator struct {
	Decl *AnnotatorDecl
	// Type is the annotation-function class IRI.
	Type rdf.Term
	// Provides are the evidence types written, with repository.
	Provides []ResolvedVar
}

// ResolvedAction is a validated action with parsed conditions.
type ResolvedAction struct {
	Decl *ActionDecl
	Name string
	// Filter is non-nil for filter actions.
	Filter condition.Expr
	// Branches holds the parsed splitter branches (name, condition).
	Branches []ResolvedBranch
}

// ResolvedBranch is one parsed splitter branch.
type ResolvedBranch struct {
	Name string
	Cond condition.Expr
}

// Resolved is the semantic form of a view: every name resolved against
// the IQ model, every condition parsed, and the evidence-type →
// repository association derived (the input the compiler needs to
// configure the single Data Enrichment operator, §6.1).
type Resolved struct {
	View       *View
	Annotators []ResolvedAnnotator
	Assertions []ResolvedAssertion
	Actions    []ResolvedAction
	// Vars maps condition identifiers to annotation-map keys (evidence
	// types, score tags, classification models).
	Vars condition.Bindings
	// EvidenceRepo maps each evidence type to the repository holding it.
	EvidenceRepo map[rdf.Term]string
	// EvidencePersistent records each evidence type's persistence flag.
	EvidencePersistent map[rdf.Term]bool
	// Streaming carries the view's resolved <streaming> defaults, nil
	// when the view declares none.
	Streaming *ResolvedStreaming
}

// ResolvedStreaming is the validated form of a <streaming> declaration:
// durations parsed, the event-time evidence resolved against the model.
type ResolvedStreaming struct {
	// EventTime is the resolved event-time evidence type; the zero Term
	// when the declaration is count-based.
	EventTime rdf.Term
	Window    time.Duration
	Slide     time.Duration
	// SessionGap non-zero selects session windows.
	SessionGap      time.Duration
	MaxOutOfOrder   time.Duration
	AllowedLateness time.Duration
	// Late is "" (default policy), "supersede" or "drop".
	Late        string
	CountWindow int
	CountSlide  int
}

// TagKeyFor derives the annotation-map key of a score tag from its
// normalised name.
func TagKeyFor(tagVar string) rdf.Term { return ontology.Q("tag/" + tagVar) }

// Resolve validates the view against the IQ model and resolves all names.
// It checks (per the semantic model of §3):
//
//   - annotator service types are q:AnnotationFunction subclasses
//   - QA service types are q:QualityAssertion subclasses
//   - evidence types are q:QualityEvidence subclasses
//   - q:class outputs name a q:ClassificationModel subclass
//   - tag and variable names are unique after normalisation
//   - action conditions parse, and their identifiers are declared
func Resolve(v *View, model *ontology.Ontology) (*Resolved, error) {
	r := &Resolved{
		View:               v,
		Vars:               condition.Bindings{},
		EvidenceRepo:       map[rdf.Term]string{},
		EvidencePersistent: map[rdf.Term]bool{},
	}
	declareVar := func(name string, key rdf.Term) error {
		if prev, ok := r.Vars[name]; ok && prev != key {
			return fmt.Errorf("qvlang: variable %q declared twice with different keys (%v vs %v)", name, prev, key)
		}
		r.Vars[name] = key
		return nil
	}
	// definesPersistence is true for annotator blocks: they author the
	// evidence and own its persistence flag. QA blocks merely read
	// evidence, so they only set the flag when nothing authored it (the
	// enrichment-only case, e.g. long-lived credibility evidence).
	resolveVarBlock := func(block VarBlock, definesPersistence bool) ([]ResolvedVar, error) {
		out := make([]ResolvedVar, 0, len(block.Vars))
		for _, vd := range block.Vars {
			if vd.Evidence == "" {
				return nil, fmt.Errorf("qvlang: <var> without evidence attribute")
			}
			ev := ontology.ExpandQName(vd.Evidence)
			if !model.IsSubClassOf(ev, ontology.QualityEvidence) {
				return nil, fmt.Errorf("qvlang: %q is not a QualityEvidence subclass", vd.Evidence)
			}
			name := vd.VariableName
			if name == "" {
				name = ontology.LocalName(ev)
			}
			name = condition.NormaliseName(name)
			if err := declareVar(name, ev); err != nil {
				return nil, err
			}
			rv := ResolvedVar{
				Name:       name,
				Evidence:   ev,
				Repository: block.Repo(),
				Persistent: block.IsPersistent(),
			}
			if prev, ok := r.EvidenceRepo[ev]; ok && prev != rv.Repository {
				return nil, fmt.Errorf("qvlang: evidence %v declared in two repositories (%q, %q)", ev, prev, rv.Repository)
			}
			r.EvidenceRepo[ev] = rv.Repository
			if _, authored := r.EvidencePersistent[ev]; definesPersistence || !authored {
				r.EvidencePersistent[ev] = rv.Persistent
			}
			out = append(out, rv)
		}
		return out, nil
	}

	for i := range v.Annotators {
		decl := &v.Annotators[i]
		if decl.ServiceType == "" {
			return nil, fmt.Errorf("qvlang: annotator %q without servicetype", decl.ServiceName)
		}
		typ := ontology.ExpandQName(decl.ServiceType)
		if !model.IsSubClassOf(typ, ontology.AnnotationFunction) {
			return nil, fmt.Errorf("qvlang: annotator type %q is not an AnnotationFunction subclass", decl.ServiceType)
		}
		provides, err := resolveVarBlock(decl.Variables, true)
		if err != nil {
			return nil, fmt.Errorf("qvlang: annotator %q: %w", decl.ServiceName, err)
		}
		if len(provides) == 0 {
			return nil, fmt.Errorf("qvlang: annotator %q declares no evidence variables", decl.ServiceName)
		}
		r.Annotators = append(r.Annotators, ResolvedAnnotator{Decl: decl, Type: typ, Provides: provides})
	}

	for i := range v.Assertions {
		decl := &v.Assertions[i]
		if decl.ServiceType == "" {
			return nil, fmt.Errorf("qvlang: assertion %q without servicetype", decl.ServiceName)
		}
		typ := ontology.ExpandQName(decl.ServiceType)
		if !model.IsSubClassOf(typ, ontology.QualityAssertion) {
			return nil, fmt.Errorf("qvlang: assertion type %q is not a QualityAssertion subclass", decl.ServiceType)
		}
		inputs, err := resolveVarBlock(decl.Variables, false)
		if err != nil {
			return nil, fmt.Errorf("qvlang: assertion %q: %w", decl.ServiceName, err)
		}
		ra := ResolvedAssertion{Decl: decl, Type: typ, Inputs: inputs}

		tagVar := condition.NormaliseName(decl.TagName)
		if tagVar == "" {
			tagVar = condition.NormaliseName(decl.ServiceName)
		}
		if tagVar == "" {
			return nil, fmt.Errorf("qvlang: assertion with neither tagname nor servicename")
		}
		ra.TagVar = tagVar

		syn := decl.TagSynType
		switch {
		case syn == "" || ontology.ExpandQName(syn) == SynScore:
			ra.TagKey = TagKeyFor(tagVar)
		case ontology.ExpandQName(syn) == SynClass:
			if decl.TagSemType == "" {
				return nil, fmt.Errorf("qvlang: classification assertion %q needs tagsemtype", decl.ServiceName)
			}
			modelIRI := ontology.ExpandQName(decl.TagSemType)
			if !model.IsSubClassOf(modelIRI, ontology.ClassificationModel) {
				return nil, fmt.Errorf("qvlang: tagsemtype %q is not a ClassificationModel subclass", decl.TagSemType)
			}
			ra.TagKey = modelIRI
		default:
			return nil, fmt.Errorf("qvlang: unknown tagsyntype %q (want q:score or q:class)", syn)
		}
		if err := declareVar(tagVar, ra.TagKey); err != nil {
			return nil, err
		}
		r.Assertions = append(r.Assertions, ra)
	}

	for i := range v.Actions {
		decl := &v.Actions[i]
		name := decl.Name
		if name == "" {
			name = fmt.Sprintf("action-%d", i+1)
		}
		ra := ResolvedAction{Decl: decl, Name: name}
		switch {
		case decl.Filter != nil && decl.Splitter != nil:
			return nil, fmt.Errorf("qvlang: action %q has both filter and splitter", name)
		case decl.Filter != nil:
			expr, err := parseActionCondition(decl.Filter.Condition, r.Vars)
			if err != nil {
				return nil, fmt.Errorf("qvlang: action %q: %w", name, err)
			}
			ra.Filter = expr
		case decl.Splitter != nil:
			if len(decl.Splitter.Branches) == 0 {
				return nil, fmt.Errorf("qvlang: action %q splitter has no branches", name)
			}
			for _, b := range decl.Splitter.Branches {
				if b.Name == "" {
					return nil, fmt.Errorf("qvlang: action %q has an unnamed branch", name)
				}
				expr, err := parseActionCondition(b.Condition, r.Vars)
				if err != nil {
					return nil, fmt.Errorf("qvlang: action %q branch %q: %w", name, b.Name, err)
				}
				ra.Branches = append(ra.Branches, ResolvedBranch{Name: b.Name, Cond: expr})
			}
		default:
			return nil, fmt.Errorf("qvlang: action %q has neither filter nor splitter", name)
		}
		r.Actions = append(r.Actions, ra)
	}

	if v.Streaming != nil {
		rs, err := resolveStreaming(v.Streaming, model)
		if err != nil {
			return nil, err
		}
		r.Streaming = rs
	}
	return r, nil
}

// resolveStreaming validates a <streaming> declaration: the event-time
// evidence must be a QualityEvidence subclass, durations must parse and
// be coherent (window XOR session-gap for event time; slide within the
// window; non-negative lateness bounds).
func resolveStreaming(s *StreamingDecl, model *ontology.Ontology) (*ResolvedStreaming, error) {
	dur := func(attr, val string) (time.Duration, error) {
		if strings.TrimSpace(val) == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return 0, fmt.Errorf("qvlang: streaming %s: %w", attr, err)
		}
		if d < 0 {
			return 0, fmt.Errorf("qvlang: streaming %s must not be negative", attr)
		}
		return d, nil
	}
	rs := &ResolvedStreaming{
		Late:        strings.TrimSpace(s.Late),
		CountWindow: s.CountWindow,
		CountSlide:  s.CountSlide,
	}
	var err error
	if rs.Window, err = dur("window", s.Window); err != nil {
		return nil, err
	}
	if rs.Slide, err = dur("slide", s.Slide); err != nil {
		return nil, err
	}
	if rs.SessionGap, err = dur("session-gap", s.SessionGap); err != nil {
		return nil, err
	}
	if rs.MaxOutOfOrder, err = dur("max-out-of-order", s.MaxOutOfOrder); err != nil {
		return nil, err
	}
	if rs.AllowedLateness, err = dur("allowed-lateness", s.AllowedLateness); err != nil {
		return nil, err
	}
	switch rs.Late {
	case "", "supersede", "drop":
	default:
		return nil, fmt.Errorf("qvlang: streaming late=%q (want supersede or drop)", s.Late)
	}
	if s.EventTime != "" {
		ev := ontology.ExpandQName(s.EventTime)
		if !model.IsSubClassOf(ev, ontology.QualityEvidence) {
			return nil, fmt.Errorf("qvlang: streaming eventtime %q is not a QualityEvidence subclass", s.EventTime)
		}
		rs.EventTime = ev
		switch {
		case rs.Window > 0 && rs.SessionGap > 0:
			return nil, fmt.Errorf("qvlang: streaming declares both window and session-gap")
		case rs.Window == 0 && rs.SessionGap == 0:
			return nil, fmt.Errorf("qvlang: streaming eventtime needs window or session-gap")
		}
		if rs.Slide > 0 && rs.Window == 0 {
			return nil, fmt.Errorf("qvlang: streaming slide without window")
		}
		if rs.Slide > rs.Window {
			return nil, fmt.Errorf("qvlang: streaming slide exceeds window")
		}
	} else {
		if rs.Window > 0 || rs.SessionGap > 0 || rs.Slide > 0 {
			return nil, fmt.Errorf("qvlang: streaming durations need an eventtime evidence")
		}
		if rs.CountSlide > rs.CountWindow {
			return nil, fmt.Errorf("qvlang: streaming count-slide exceeds count-window")
		}
	}
	return rs, nil
}

// parseActionCondition parses a condition and checks that the bare
// identifiers it uses are declared view variables. (Q-names like q:high
// are literals, not identifiers, and need no declaration.)
func parseActionCondition(src string, vars condition.Bindings) (condition.Expr, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, fmt.Errorf("empty condition")
	}
	expr, err := condition.Parse(src)
	if err != nil {
		return nil, err
	}
	for _, ident := range identifiersIn(src) {
		if _, ok := vars[ident]; !ok {
			return nil, fmt.Errorf("condition references undeclared variable %q", ident)
		}
	}
	return expr, nil
}

// identifiersIn extracts the bare identifiers of a condition source,
// skipping keywords, q-names and string literals.
func identifiersIn(src string) []string {
	var out []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '"' || c == '\'':
			j := i + 1
			for j < len(src) && src[j] != c {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			i = j + 1
		case isIdentByte(c) && !isDigitByte(c):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			word := src[i:j]
			// Skip q-names.
			if j < len(src) && src[j] == ':' {
				j++
				for j < len(src) && (isIdentByte(src[j]) || src[j] == '-') {
					j++
				}
				i = j
				continue
			}
			switch strings.ToLower(word) {
			case "and", "or", "not", "in", "true", "false":
			default:
				out = append(out, word)
			}
			i = j
		default:
			i++
		}
	}
	return out
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || isDigitByte(c)
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }
