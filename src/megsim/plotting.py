"""Self-contained SVG line charts, so figures need no plotting library."""

import math

from .util import replace_file

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo, hi, count=5):
    if not math.isfinite(lo) or not math.isfinite(hi) or lo == hi:
        lo, hi = (lo - 1.0, lo + 1.0) if math.isfinite(lo) else (0.0, 1.0)
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def write_line_chart(path, series, title="", xlabel="", ylabel="",
                     width=640, height=420):
    """Write one SVG chart; ``series`` maps label -> (xs, ys).

    Non-finite y values are dropped from their line.
    """
    margin_l, margin_r, margin_t, margin_b = 62, 140, 36, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    pts = {label: [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
           for label, (xs, ys) in series.items()}
    all_x = [x for p in pts.values() for x, _ in p]
    all_y = [y for p in pts.values() for _, y in p]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="sans-serif" font-size="12">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2}" y="20" text-anchor="middle" '
           f'font-size="14">{title}</text>']
    out.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333"/>')
    for t in _nice_ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            out.append(f'<line x1="{sx(t):.1f}" y1="{margin_t + plot_h}" '
                       f'x2="{sx(t):.1f}" y2="{margin_t + plot_h + 4}" '
                       f'stroke="#333"/>')
            out.append(f'<text x="{sx(t):.1f}" y="{margin_t + plot_h + 17}" '
                       f'text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            out.append(f'<line x1="{margin_l - 4}" y1="{sy(t):.1f}" '
                       f'x2="{margin_l}" y2="{sy(t):.1f}" stroke="#333"/>')
            out.append(f'<text x="{margin_l - 8}" y="{sy(t) + 4:.1f}" '
                       f'text-anchor="end">{t:g}</text>')
    out.append(f'<text x="{margin_l + plot_w / 2}" y="{height - 8}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{margin_t + plot_h / 2}" '
               f'text-anchor="middle" transform="rotate(-90 16 '
               f'{margin_t + plot_h / 2})">{ylabel}</text>')
    for i, (label, p) in enumerate(pts.items()):
        color = _COLORS[i % len(_COLORS)]
        if p:
            path_d = " ".join(f"{'M' if j == 0 else 'L'} "
                              f"{sx(x):.1f} {sy(y):.1f}"
                              for j, (x, y) in enumerate(sorted(p)))
            out.append(f'<path d="{path_d}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
            for x, y in p:
                out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                           f'r="2.5" fill="{color}"/>')
        ly = margin_t + 14 + 18 * i
        lx = margin_l + plot_w + 10
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}">{label}</text>')
    out.append("</svg>")
    with replace_file(path) as fh:
        fh.write("\n".join(out))
