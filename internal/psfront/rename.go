package psfront

import (
	"fmt"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// renamePhase replaces statistically random variable and function names
// with var{N}/func{N} (paper §III-C). The randomness decision is made on
// the concatenation of all unique names, using the General American
// English vowel ratio (32–42 %) and a minimum letter proportion (10 %).
// The token stream and the function-definition parse both come from the
// run's cache — when phases 1–2 reached a fixpoint, the last ast pass
// already cached this exact text.
func (r *run) renamePhase(pc *pipeline.PassContext, doc *pipeline.Document) {
	toks, err := docTokens(doc)
	if err != nil {
		return
	}
	src := doc.Text()
	varNames := collectVariableNames(toks)
	funcNames := collectFunctionNames(doc)
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
	out, n := rewriteTokens(src, toks, renameToken(varMap, funcMap))
	r.Stats.IdentifiersRenamed += n
	doc.SetText(pc.ValidOrRevert(doc.View(), out, src))
}

// renameToken returns the rename pass's replacement: variables named in
// varMap become $var{N}, commands and arguments named in funcMap become
// func{N}. Both maps are keyed by the lower-cased name.
func renameToken(varMap, funcMap map[string]string) func(pstoken.Token, string) (string, bool) {
	return func(tok pstoken.Token, _ string) (string, bool) {
		switch tok.Type {
		case pstoken.Variable:
			if repl, ok := varMap[strings.ToLower(tok.Content)]; ok {
				return "$" + repl, true
			}
		case pstoken.Command, pstoken.CommandArgument:
			if repl, ok := funcMap[strings.ToLower(tok.Content)]; ok {
				return repl, true
			}
		}
		return "", false
	}
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
// in definition order, from the Document's cached AST.
func collectFunctionNames(doc *pipeline.Document) []string {
	root, err := docAST(doc)
	if err != nil {
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
