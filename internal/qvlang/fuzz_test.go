package qvlang

import (
	"testing"

	"qurator/internal/ontology"
)

// FuzzParseView: no view document panics Parse, or Resolve against the
// IQ model once Parse accepts it.
func FuzzParseView(f *testing.F) {
	f.Add(PaperViewXML)
	f.Add(`<QualityView name="v"><action name="a"><filter><condition>x > 1</condition></filter></action></QualityView>`)
	f.Add(`<QualityView/>`)
	model := ontology.NewIQModel()
	f.Fuzz(func(t *testing.T, doc string) {
		v, err := Parse([]byte(doc))
		if err != nil {
			return
		}
		_, _ = Resolve(v, model)
	})
}
