package qvlang

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qurator/internal/ontology"
)

// viewDoc matches one quality view document in Go source.
var viewDoc = regexp.MustCompile(`(?s)<QualityView\b.*?</QualityView>`)

// FuzzParseView: no view document panics Parse, or Resolve against the
// IQ model once Parse accepts it. The seeds are the hand-written ones
// below plus every view document in the Go sources under examples/ and
// internal/.
func FuzzParseView(f *testing.F) {
	f.Add(PaperViewXML)
	f.Add(`<QualityView name="v"><action name="a"><filter><condition>x > 1</condition></filter></action></QualityView>`)
	f.Add(`<QualityView/>`)
	for _, root := range []string{"../../examples", ".."} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, doc := range viewDoc.FindAllString(string(src), -1) {
				f.Add(doc)
			}
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	model := ontology.NewIQModel()
	f.Fuzz(func(t *testing.T, doc string) {
		v, err := Parse([]byte(doc))
		if err != nil {
			return
		}
		_, _ = Resolve(v, model)
	})
}
