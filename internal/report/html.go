package report

import (
	"fmt"
	"html"
	"strings"
)

// HTMLPage wraps pre-rendered text blocks into a minimal self-contained HTML
// report.
func HTMLPage(title string, blocks []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<!DOCTYPE html><html><head><meta charset="utf-8"><title>%s</title>
<style>
 body { font-family: sans-serif; max-width: 1000px; margin: 2em auto; color: #111; }
 pre { background: #f6f6f6; padding: 0.8em 1em; overflow-x: auto; border-radius: 4px; }
 h1 { border-bottom: 2px solid #4477aa; padding-bottom: 0.2em; }
</style></head><body><h1>%s</h1>
`, html.EscapeString(title), html.EscapeString(title))
	for _, blk := range blocks {
		fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(blk))
	}
	b.WriteString("</body></html>\n")
	return b.String()
}
