package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Minimal ASCII charting so the figure runners can render the *shape* the
// paper plots — log-scale line charts for the γ-sweeps and scatter plots
// for the Pareto panels — directly in a terminal, alongside the data rows.

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a collection of series with axis labels.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// LogY plots log10(y) (the paper's error axes are logarithmic).
	LogY bool
	// Width and Height are the plot area size in characters.
	Width, Height int
}

// Render draws the chart with one marker per series ('a', 'b', ...) and a
// legend. Non-finite and (for LogY) non-positive points are skipped.
func (c *Chart) Render(w io.Writer) {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}

	type pt struct {
		x, y float64
		mark byte
	}
	var pts []pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range c.Series {
		mark := byte('a' + si%26)
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if c.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			pts = append(pts, pt{x, y, mark})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	fmt.Fprintf(w, "-- %s --\n", c.Title)
	if len(pts) == 0 {
		fmt.Fprintln(w, "(no finite points)")
		return
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		col := int((p.x - minX) / (maxX - minX) * float64(width-1))
		row := height - 1 - int((p.y-minY)/(maxY-minY)*float64(height-1))
		if grid[row][col] == ' ' || grid[row][col] == p.mark {
			grid[row][col] = p.mark
		} else {
			grid[row][col] = '*' // collision
		}
	}

	yTop, yBot := maxY, minY
	suffix := ""
	if c.LogY {
		suffix = " (log10)"
	}
	fmt.Fprintf(w, "%8.3f +%s\n", yTop, "")
	for _, row := range grid {
		fmt.Fprintf(w, "         |%s\n", string(row))
	}
	fmt.Fprintf(w, "%8.3f +%s\n", yBot, strings.Repeat("-", width))
	fmt.Fprintf(w, "          %-8.3g%s%8.3g\n", minX, strings.Repeat(" ", max(1, width-16)), maxX)
	fmt.Fprintf(w, "          x: %s   y: %s%s\n", c.XLabel, c.YLabel, suffix)
	for si, s := range c.Series {
		fmt.Fprintf(w, "          %c = %s\n", byte('a'+si%26), s.Name)
	}
	fmt.Fprintln(w)
}

// stripBudget removes a trailing "(γ=…)" so that the same algorithm at
// different budgets forms one series.
func stripBudget(name string) string {
	if i := strings.Index(name, "(γ="); i > 0 {
		return name[:i]
	}
	return name
}

// ChartFromRows builds a chart from report rows: groupCol labels the
// series, xCol and yCol are parsed as floats (unparsable cells skipped).
func ChartFromRows(title string, rows [][]string, groupCol, xCol, yCol int, xLabel, yLabel string, logY bool) *Chart {
	series := map[string]*Series{}
	var order []string
	for _, row := range rows {
		if groupCol >= len(row) || xCol >= len(row) || yCol >= len(row) {
			continue
		}
		var x, y float64
		if _, err := fmt.Sscanf(row[xCol], "%f", &x); err != nil {
			continue
		}
		if _, err := fmt.Sscanf(row[yCol], "%f", &y); err != nil {
			continue
		}
		key := stripBudget(row[groupCol])
		s, ok := series[key]
		if !ok {
			s = &Series{Name: key}
			series[key] = s
			order = append(order, key)
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, y)
	}
	sort.Strings(order)
	c := &Chart{Title: title, XLabel: xLabel, YLabel: yLabel, LogY: logY}
	for _, key := range order {
		c.Series = append(c.Series, *series[key])
	}
	return c
}
