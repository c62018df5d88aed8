package pipeline

// Document owns one script's source text as it flows through the
// passes. Its token stream and AST are not stored on the Document
// itself but memoized in the run's parse cache keyed by (language,
// content), so a pass that rewrites the text and then reverts gets the
// original artifacts back for free, and two Documents holding
// identical text (e.g. an unwrapped payload equal to a prior layer)
// share one parse.
//
// Artifacts are opaque `any` values produced by the view's Lang; the
// owning frontend asserts them back to its concrete token-stream and
// AST types.
//
// Invariants:
//   - Text is the single source of truth; AST/Tokens always describe
//     the current Text (they are re-derived — or re-fetched from cache —
//     after every SetText).
//   - Cached artifacts are immutable: every consumer walks them
//     read-only. Extent offsets in a cached AST are valid against the
//     exact text that produced it, which the cache guarantees by keying
//     on content.
//   - A Document is confined to one goroutine; the cache behind it is
//     safe to share.
type Document struct {
	view *View
	text string
}

// NewDocument returns a Document over text drawing from the given
// cache view (which carries the language).
func NewDocument(text string, view *View) *Document {
	return &Document{view: view, text: text}
}

// Text returns the current source text.
func (d *Document) Text() string { return d.text }

// Len returns the current source length in bytes.
func (d *Document) Len() int { return len(d.text) }

// SetText replaces the source text. Artifacts for the new text are
// fetched lazily on the next AST/Tokens call.
func (d *Document) SetText(text string) { d.text = text }

// AST returns the memoized parse artifact of the current text.
func (d *Document) AST() (any, error) {
	if d.view == nil {
		return nil, ErrNoLang
	}
	return d.view.Parse(d.text)
}

// Tokens returns the memoized token artifact of the current text.
func (d *Document) Tokens() (any, error) {
	if d.view == nil {
		return nil, ErrNoLang
	}
	return d.view.Tokenize(d.text)
}

// Valid reports whether the current text parses.
func (d *Document) Valid() bool {
	if d.view == nil {
		return false
	}
	return d.view.Valid(d.text)
}

// View returns the cache view this Document draws from.
func (d *Document) View() *View { return d.view }

// Fork returns a new Document over different text sharing this
// Document's cache view — used for nested payload layers, which want
// the same amortization pool (and language) as their parent.
func (d *Document) Fork(text string) *Document {
	return &Document{view: d.view, text: text}
}
