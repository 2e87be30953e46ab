// Package render draws MCFS instances and solutions as standalone SVG
// documents — the counterpart of the paper's Figure 1/5 maps: the road
// network in grey, customers in red, candidate facilities in blue,
// selected facilities emphasized, and assignment links customer→facility.
package render

import (
	"fmt"
	"io"
	"math"

	"mcfs/internal/data"
)

// The rendered appearance.
const (
	canvasWidth = 900.0     // px
	nodeRadius  = 1.2       // base node radius
	background  = "#ffffff" // css color
)

// SVG renders the instance (and optionally its solution; sol may be nil)
// into w. The network must carry coordinates.
func SVG(w io.Writer, inst *data.Instance, sol *data.Solution) error {
	g := inst.G
	if !g.HasCoords() {
		return fmt.Errorf("render: network has no coordinates")
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for v := int32(0); v < int32(g.N()); v++ {
		x, y := g.Coord(v)
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	width := canvasWidth
	height := width * spanY / spanX
	const pad = 12.0
	sx := func(x float64) float64 { return pad + (x-minX)/spanX*(width-2*pad) }
	sy := func(y float64) float64 { return pad + (maxY-y)/spanY*(height-2*pad) } // flip y

	pf := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pf(`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height+2*pad, width, height+2*pad); err != nil {
		return err
	}
	pf(`<rect width="100%%" height="100%%" fill="%s"/>`+"\n", background)

	pf(`<g stroke="#c8c8c8" stroke-width="0.5">` + "\n")
	for v := int32(0); v < int32(g.N()); v++ {
		x1, y1 := g.Coord(v)
		var err error
		g.Neighbors(v, func(u int32, _ int64) bool {
			if g.Directed() || v < u {
				x2, y2 := g.Coord(u)
				err = pf(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n",
					sx(x1), sy(y1), sx(x2), sy(y2))
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	pf("</g>\n")

	if sol != nil {
		pf(`<g stroke="#7a5fb5" stroke-width="0.8" stroke-opacity="0.6">` + "\n")
		for i, j := range sol.Assignment {
			x1, y1 := g.Coord(inst.Customers[i])
			x2, y2 := g.Coord(inst.Facilities[j].Node)
			pf(`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n",
				sx(x1), sy(y1), sx(x2), sy(y2))
		}
		pf("</g>\n")
	}

	// Candidate facilities (blue, hollow), selected ones solid.
	selected := map[int]bool{}
	if sol != nil {
		for _, j := range sol.Selected {
			selected[j] = true
		}
	}
	pf(`<g>` + "\n")
	for j, f := range inst.Facilities {
		x, y := g.Coord(f.Node)
		r := nodeRadius * 2
		if selected[j] {
			pf(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#1f5fbf"/>`+"\n", sx(x), sy(y), r*1.4)
		} else {
			pf(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#1f5fbf" stroke-width="0.8"/>`+"\n",
				sx(x), sy(y), r)
		}
	}
	pf("</g>\n<g>\n")
	for _, s := range inst.Customers {
		x, y := g.Coord(s)
		pf(`<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#c8321e"/>`+"\n", sx(x), sy(y), nodeRadius*1.6)
	}
	pf("</g>\n")
	return pf("</svg>\n")
}
