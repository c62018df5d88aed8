// Package score identifies known obfuscation techniques in PowerShell
// scripts and quantifies obfuscation the way the paper does (§IV-B2):
// each distinct technique contributes its level (L1=1, L2=2, L3=3) to
// the script's obfuscation score, counted once per technique.
//
// Detection combines token evidence, AST structure and regular
// expressions, mirroring the paper's hybrid detector.
package score

import (
	"math"
	"regexp"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// Technique names reported by the detector. They intentionally match
// Table II's rows.
const (
	TechTicking      = "ticking"
	TechWhitespacing = "whitespacing"
	TechRandomCase   = "random-case"
	TechRandomName   = "random-name"
	TechAlias        = "alias"
	TechConcat       = "concat"
	TechReorder      = "reorder"
	TechReplace      = "replace"
	TechReverse      = "reverse"
	TechNumericEnc   = "encode-numeric"
	TechBase64       = "encode-base64"
	TechWhitespace   = "encode-whitespace"
	TechSpecialChar  = "encode-specialchar"
	TechBxor         = "encode-bxor"
	TechSecureString = "securestring"
	TechCompress     = "compress"
)

// Level returns the paper's level for a detected technique.
func Level(tech string) int {
	switch tech {
	case TechTicking, TechWhitespacing, TechRandomCase, TechRandomName, TechAlias:
		return 1
	case TechConcat, TechReorder, TechReplace, TechReverse:
		return 2
	default:
		return 3
	}
}

// Detection reports one identified technique.
type Detection struct {
	Technique string
	Level     int
	Count     int
}

// Report is the outcome of analyzing one script.
type Report struct {
	Detections []Detection
	// Score is the sum of levels over distinct detected techniques.
	Score int
	// Levels reports which obfuscation levels are present.
	Levels [4]bool // index 1..3 used
}

// Has reports whether tech was detected.
func (r *Report) Has(tech string) bool {
	for _, d := range r.Detections {
		if d.Technique == tech {
			return true
		}
	}
	return false
}

var (
	base64Re     = regexp.MustCompile(`[A-Za-z0-9+/]{40,}={0,2}`)
	fromBase64Re = regexp.MustCompile(`(?i)frombase64string`)
	encParamRe   = regexp.MustCompile(`(?i)-e[nc]{0,13}\s+[A-Za-z0-9+/=]{16,}`)
	compressRe   = regexp.MustCompile(`(?i)(deflatestream|gzipstream|streamreader)`)
	secureRe     = regexp.MustCompile(`(?i)(convertto-securestring|securestringtobstr|ptrtostring)`)
	toIntBaseRe  = regexp.MustCompile(`(?i)toint\d*\s*\(\s*[^,]{1,60},\s*(2|8|16)\s*\)`)
	midSpaceRe   = regexp.MustCompile(`\S[ \t]{3,}\S`)
)

// Analyze detects known obfuscation techniques in src.
func Analyze(src string) *Report {
	counts := map[string]int{}
	// A script that does not lex does not parse either, so both
	// analyses need the one token stream.
	if toks, err := pstoken.Tokenize(src); err == nil {
		analyzeTokens(src, toks, counts)
		if root, err := psparser.ParseTokens(src, toks); err == nil {
			analyzeAST(root, src, counts)
		}
	}
	analyzeRegex(src, counts)
	rep := &Report{}
	for tech, count := range counts {
		if count == 0 {
			continue
		}
		level := Level(tech)
		rep.Detections = append(rep.Detections, Detection{Technique: tech, Level: level, Count: count})
		rep.Score += level
		rep.Levels[level] = true
	}
	sortDetections(rep.Detections)
	return rep
}

func sortDetections(ds []Detection) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && (ds[j].Level < ds[j-1].Level ||
			(ds[j].Level == ds[j-1].Level && ds[j].Technique < ds[j-1].Technique)); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func analyzeTokens(src string, toks []pstoken.Token, counts map[string]int) {
	var identifiers strings.Builder
	seenIdent := map[string]bool{}
	for _, tok := range toks {
		if tok.HadTicks {
			counts[TechTicking]++
		}
		switch tok.Type {
		case pstoken.Command:
			if psnames.IsAlias(tok.Content) {
				counts[TechAlias]++
			}
			if weirdCase(tok.Content) {
				counts[TechRandomCase]++
			}
		case pstoken.Keyword, pstoken.Member, pstoken.TypeLiteral:
			if weirdCase(tok.Content) {
				counts[TechRandomCase]++
			}
		case pstoken.Operator:
			if text := tok.Text(src); strings.HasPrefix(text, "-") && weirdCase(strings.TrimPrefix(text, "-")) {
				counts[TechRandomCase]++
			}
		case pstoken.Variable:
			name := strings.ToLower(tok.Content)
			if !strings.Contains(name, ":") && !seenIdent[name] && isUserVarName(name) {
				seenIdent[name] = true
				identifiers.WriteString(name)
			}
		case pstoken.String:
			if isWhitespacePayload(tok.Content) {
				counts[TechWhitespace]++
			}
		}
	}
	if s := identifiers.String(); s != "" && len(s) >= 8 && isRandomIdentifiers(s) {
		counts[TechRandomName]++
	}
	// Whitespacing: runs of blanks in the middle of code lines, outside
	// strings.
	stripped := maskStrings(src, toks)
	if midSpaceRe.MatchString(stripped) {
		counts[TechWhitespacing]++
	}
}

// maskStrings blanks out string token contents so regex detectors do
// not fire on data.
func maskStrings(src string, toks []pstoken.Token) string {
	b := []byte(src)
	for _, t := range toks {
		if t.Type == pstoken.String || t.Type == pstoken.Comment {
			for i := int(t.Start); i < t.End() && i < len(b); i++ {
				if b[i] != '\n' {
					b[i] = 'x'
				}
			}
		}
	}
	return string(b)
}

// weirdCase reports the random-case pattern: dense case flips between
// adjacent letters.
func weirdCase(s string) bool {
	letters := 0
	flips := 0
	prevUpper := false
	havePrev := false
	for _, r := range s {
		isUpper := r >= 'A' && r <= 'Z'
		isLower := r >= 'a' && r <= 'z'
		if !isUpper && !isLower {
			havePrev = false
			continue
		}
		letters++
		if havePrev && isUpper != prevUpper {
			flips++
		}
		prevUpper = isUpper
		havePrev = true
	}
	if letters < 3 {
		return false
	}
	return float64(flips)/float64(letters-1) >= 0.5 && flips >= 2
}

func isUserVarName(name string) bool {
	switch name {
	case "_", "$", "?", "^", "args", "input", "this", "true", "false",
		"null", "error", "matches", "pshome", "home", "pwd", "host",
		"env", "executioncontext", "psversiontable", "shellid", "pid",
		"ofs", "i", "j", "k", "x", "y", "n":
		return false
	}
	return true
}

// isRandomIdentifiers applies the paper's vowel/letter-ratio test.
func isRandomIdentifiers(combined string) bool {
	letters, vowels, total := 0, 0, 0
	for _, r := range combined {
		total++
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
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

// isWhitespacePayload detects whitespace-encoding payload strings.
func isWhitespacePayload(s string) bool {
	if len(s) < 40 {
		return false
	}
	blanks := 0
	for _, r := range s {
		if r == ' ' || r == '\t' {
			blanks++
		}
	}
	return float64(blanks)/float64(len(s)) >= 0.8
}

func analyzeAST(root psast.Node, src string, counts map[string]int) {
	psast.Walk(root, func(n psast.Node) bool {
		switch x := n.(type) {
		case *psast.BinaryExpression:
			switch x.Operator {
			case "+":
				if isStringy(x.Left) || isStringy(x.Right) {
					counts[TechConcat]++
				}
			case "-f":
				if fmtStr, ok := formatString(x.Left); ok && strings.Count(fmtStr, "{") >= 2 {
					counts[TechReorder]++
				}
			case "-replace", "-creplace", "-ireplace":
				counts[TechReplace]++
			case "-bxor":
				counts[TechBxor]++
			case "..":
				if isDescendingRange(x) {
					counts[TechReverse]++
				}
			}
		case *psast.InvokeMemberExpression:
			name := memberNameOf(x.Member)
			switch strings.ToLower(name) {
			case "replace":
				if len(x.Args) >= 2 {
					counts[TechReplace]++
				}
			case "reverse":
				counts[TechReverse]++
			case "frombase64string":
				counts[TechBase64]++
			case "toint16", "toint32", "toint64", "tobyte":
				if len(x.Args) >= 2 {
					counts[TechNumericEnc]++
				}
			}
			if x.Static {
				if te, ok := x.Target.(*psast.TypeExpression); ok {
					tn := strings.ToLower(te.TypeName)
					if strings.Contains(tn, "array") && strings.EqualFold(name, "reverse") {
						counts[TechReverse]++
					}
					if strings.Contains(tn, "marshal") {
						counts[TechSecureString]++
					}
				}
			}
		case *psast.ConvertExpression:
			if strings.EqualFold(strings.TrimSpace(x.TypeName), "char") {
				counts[TechNumericEnc]++
			}
		case *psast.Command:
			if name, ok := commandName(x); ok {
				lower := strings.ToLower(name)
				switch {
				case strings.Contains(lower, "securestring"):
					counts[TechSecureString]++
				}
				if lower == "powershell" || lower == "pwsh" || lower == "powershell.exe" {
					for _, a := range x.Args {
						if cp, ok := a.(*psast.CommandParameter); ok && isEncParam(cp.Name) {
							counts[TechBase64]++
						}
					}
				}
			}
		}
		return true
	}, nil)
	// Special characters: low letter density over the whole script.
	letters := 0
	for _, r := range src {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			letters++
		}
	}
	if len(src) >= 40 && float64(letters)/float64(len(src)) < 0.25 {
		counts[TechSpecialChar]++
	}
}

func isEncParam(param string) bool {
	p := strings.ToLower(strings.TrimPrefix(param, "-"))
	// "-ec" is powershell.exe's special-cased EncodedCommand spelling
	// (not a name prefix); keep this in lockstep with
	// psinterp.IsEncodedCommandParameter.
	return p != "" && (p == "ec" || strings.HasPrefix("encodedcommand", p)) && p != "ep"
}

func isStringy(n psast.Node) bool {
	switch n.(type) {
	case *psast.StringConstant, *psast.ExpandableString:
		return true
	}
	return false
}

func formatString(n psast.Node) (string, bool) {
	switch x := n.(type) {
	case *psast.StringConstant:
		return x.Value, true
	case *psast.ExpandableString:
		return x.Raw, true
	case *psast.ParenExpression:
		if p, ok := x.Pipeline.(*psast.Pipeline); ok && len(p.Elements) == 1 {
			if ce, ok := p.Elements[0].(*psast.CommandExpression); ok {
				return formatString(ce.Expression)
			}
		}
	}
	return "", false
}

func isDescendingRange(b *psast.BinaryExpression) bool {
	l, lok := constantInt(b.Left)
	r, rok := constantInt(b.Right)
	return lok && rok && l > r
}

func constantInt(n psast.Node) (int64, bool) {
	switch x := n.(type) {
	case *psast.ConstantExpression:
		if v, ok := x.Value.(int64); ok {
			return v, true
		}
	case *psast.UnaryExpression:
		if x.Operator == "-" {
			if v, ok := constantInt(x.Operand); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

func memberNameOf(n psast.Node) string {
	if sc, ok := n.(*psast.StringConstant); ok {
		return sc.Value
	}
	return ""
}

func commandName(c *psast.Command) (string, bool) {
	if sc, ok := c.Name.(*psast.StringConstant); ok {
		return sc.Value, true
	}
	return "", false
}

func analyzeRegex(src string, counts map[string]int) {
	if fromBase64Re.MatchString(src) || encParamRe.MatchString(src) {
		counts[TechBase64]++
	} else if base64Re.MatchString(src) && len(src) > 120 {
		// Long base64 blobs without an explicit decoder still indicate
		// encoding (binary payloads).
		counts[TechBase64]++
	}
	if compressRe.MatchString(src) {
		counts[TechCompress]++
	}
	if secureRe.MatchString(src) {
		counts[TechSecureString]++
	}
	if toIntBaseRe.MatchString(src) {
		counts[TechNumericEnc]++
	}
}

// Score returns the obfuscation score of src.
func Score(src string) int {
	return Analyze(src).Score
}

// Entropy returns the Shannon entropy of src in bits per byte (0..8).
// Plain PowerShell source sits around 4–5 bits; base64 payloads push
// toward 6, and compressed or encrypted blobs toward 8. The serving
// frontend uses this as a cheap single-pass predictor of decode-heavy
// scripts (cost-aware admission); the detector side can use it to
// corroborate encoding findings.
func Entropy(src string) float64 {
	if len(src) == 0 {
		return 0
	}
	var freq [256]int
	for i := 0; i < len(src); i++ {
		freq[src[i]]++
	}
	n := float64(len(src))
	h := 0.0
	for _, c := range freq {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// EncodedBlobDensity reports the fraction of src (0..1) covered by
// long base64-alphabet runs — the same signature base64Re uses for
// technique detection, reduced to a coverage ratio. A script that is
// mostly one giant encoded payload scores near 1; ordinary source
// scores near 0.
func EncodedBlobDensity(src string) float64 {
	if len(src) == 0 {
		return 0
	}
	covered := 0
	for _, span := range base64Re.FindAllStringIndex(src, -1) {
		covered += span[1] - span[0]
	}
	return float64(covered) / float64(len(src))
}
