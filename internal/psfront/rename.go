package psfront

import (
	"fmt"
	"slices"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// renamePhase replaces statistically random variable and function names
// with var{N}/func{N} (paper §III-C). The randomness decision is made on
// the concatenation of all unique names, using the General American
// English vowel ratio (32–42 %) and a minimum letter proportion (10 %).
// A double-quoted string or here-string is one token, so the variables
// it expands are renamed from the parse. The token stream and the parse
// both come from the run's cache — when phases 1–2 reached a fixpoint,
// the last ast pass already cached this exact text.
func (r *run) renamePhase(pc *pipeline.PassContext, doc *pipeline.Document) {
	toks, err := docTokens(doc)
	if err != nil {
		return
	}
	src := doc.Text()
	root, _ := docAST(doc)
	varNames := collectVariableNames(toks)
	funcNames := collectFunctionNames(root)
	if len(varNames)+len(funcNames) == 0 {
		return
	}
	var combined strings.Builder
	for _, n := range varNames {
		combined.WriteString(n)
	}
	for _, n := range funcNames {
		combined.WriteString(n)
	}
	if !IsRandomName(combined.String()) {
		return
	}
	varMap := make(map[string]string, len(varNames))
	for i, n := range varNames {
		varMap[n] = fmt.Sprintf("var%d", i)
	}
	funcMap := make(map[string]string, len(funcNames))
	for i, n := range funcNames {
		funcMap[n] = fmt.Sprintf("func%d", i)
	}
	out, n := rewriteTokens(src, toks, renameToken(varMap, funcMap, stringVarRefs(root, varMap)))
	r.Stats.IdentifiersRenamed += n
	doc.SetText(pc.ValidOrRevert(doc.View(), out, src))
}

// renameToken returns the rename pass's replacement: variables named in
// varMap become $var{N}, commands and arguments named in funcMap become
// func{N}. Both maps are keyed by the lower-cased name. refs are the
// references inside strings that varMap renames, sorted by offset (see
// stringVarRefs); a string token holding some is rewritten with each
// renamed in its written form.
func renameToken(varMap, funcMap map[string]string, refs []*psast.VariableExpression) func(pstoken.Token, string) (string, bool) {
	return func(tok pstoken.Token, text string) (string, bool) {
		switch tok.Type {
		case pstoken.Variable:
			if repl, ok := varMap[strings.ToLower(tok.Content)]; ok {
				return "$" + repl, true
			}
		case pstoken.Command, pstoken.CommandArgument:
			if repl, ok := funcMap[strings.ToLower(tok.Content)]; ok {
				return repl, true
			}
		case pstoken.String:
			return renameInString(tok, text, varMap, refs)
		}
		return "", false
	}
}

// renameInString renames the refs inside string token tok, whose source
// text is text: $x becomes $var{N} and ${x} becomes ${var{N}}.
func renameInString(tok pstoken.Token, text string, varMap map[string]string, refs []*psast.VariableExpression) (string, bool) {
	start := int(tok.Start)
	i, _ := slices.BinarySearchFunc(refs, start, func(ref *psast.VariableExpression, off int) int {
		return ref.Ext.Start - off
	})
	var sb strings.Builder
	copied := 0
	for ; i < len(refs) && refs[i].Ext.End <= tok.End(); i++ {
		from, to := refs[i].Ext.Start-start, refs[i].Ext.End-start
		name := varMap[strings.ToLower(refs[i].Name)]
		sb.WriteString(text[copied:from])
		if strings.HasPrefix(text[from:to], "${") {
			sb.WriteString("${" + name + "}")
		} else {
			sb.WriteString("$" + name)
		}
		copied = to
	}
	if copied == 0 {
		return "", false
	}
	sb.WriteString(text[copied:])
	return sb.String(), true
}

// stringVarRefs returns the variable references inside expandable
// strings and here-strings, $(…) bodies included, that varMap renames,
// sorted by offset. The parser gives each its absolute extent.
func stringVarRefs(root *psast.ScriptBlock, varMap map[string]string) []*psast.VariableExpression {
	if root == nil {
		return nil
	}
	var refs []*psast.VariableExpression
	inString := 0
	psast.Walk(root, func(n psast.Node) bool {
		switch x := n.(type) {
		case *psast.ExpandableString:
			inString++
		case *psast.VariableExpression:
			if _, ok := varMap[strings.ToLower(x.Name)]; ok && inString > 0 {
				refs = append(refs, x)
			}
		}
		return true
	}, func(n psast.Node) {
		if n.Kind() == psast.KindExpandableString {
			inString--
		}
	})
	slices.SortFunc(refs, func(a, b *psast.VariableExpression) int { return a.Ext.Start - b.Ext.Start })
	return refs
}

// collectVariableNames returns unique user variable names (lower-cased)
// in order of first appearance.
func collectVariableNames(toks []pstoken.Token) []string {
	seen := make(map[string]bool)
	var out []string
	for _, tok := range toks {
		if tok.Type != pstoken.Variable {
			continue
		}
		name := strings.ToLower(tok.Content)
		if strings.Contains(name, ":") || canonicalVarName(name) == "" {
			continue
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// collectFunctionNames returns user-defined function names (lower-cased)
// in definition order, from the parse root (nil when the text does not
// parse).
func collectFunctionNames(root *psast.ScriptBlock) []string {
	if root == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	psast.Walk(root, func(n psast.Node) bool {
		if fd, ok := n.(*psast.FunctionDefinition); ok {
			name := strings.ToLower(fd.Name)
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		return true
	}, nil)
	return out
}

// IsRandomName applies the paper's statistical test to a combined
// identifier string: names are random when letters make up less than
// 10 % of the characters, or the vowel proportion of the letters falls
// outside [32 %, 42 %] (Hayden's General American English estimate is
// 37.4 %).
func IsRandomName(combined string) bool {
	if combined == "" {
		return false
	}
	letters, vowels, total := 0, 0, 0
	for _, r := range combined {
		total++
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			letters++
			switch r {
			case 'a', 'e', 'i', 'o', 'u', 'A', 'E', 'I', 'O', 'U':
				vowels++
			}
		}
	}
	if total == 0 {
		return false
	}
	if float64(letters)/float64(total) < 0.10 {
		return true
	}
	if letters == 0 {
		return true
	}
	ratio := float64(vowels) / float64(letters)
	return ratio < 0.32 || ratio > 0.42
}
