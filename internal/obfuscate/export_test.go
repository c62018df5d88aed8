package obfuscate

import "github.com/invoke-deobfuscation/invokedeob/internal/pstoken"

// TokenFunc is the per-token callback of the token rewriter: it gets a
// token and its source text and returns the replacement and whether to
// apply it.
type TokenFunc = func(tok pstoken.Token, text string) (string, bool)

// RewriteTokens exposes the forward token rewriter to external tests.
var RewriteTokens = rewriteTokens

// SwapTokenRewriter makes the token techniques rewrite through rw until
// the returned function restores the forward rewriter.
func SwapTokenRewriter(rw func(src string, fn TokenFunc) (string, bool, error)) (restore func()) {
	tokenRewriter = rw
	return func() { tokenRewriter = rewriteTokens }
}
