#!/usr/bin/env python3
"""Plot the CSVs the suite scenarios export to target/figures/.

Usage:
    # 1. regenerate the data (or `--only fig9 --print-output` for one)
    cargo run --release -p lgv-bench --bin suite
    # 2. plot everything found
    python3 scripts/plot_figures.py [target/figures] [out_dir]

Profile mode plots the wall-clock profile artifact instead (one
horizontal self-time bar chart per scenario, plus a coverage chart):

    cargo run --release -p lgv-bench --bin suite -- --quick --profile
    python3 scripts/plot_figures.py --profile BENCH_profile.json [out_dir]

Requires matplotlib (`pip install matplotlib`). The Rust side never
depends on this script — it is a convenience for eyeballing the shapes
against the paper's figures.
"""

import csv
import json
import pathlib
import sys


def read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def numeric(cell):
    try:
        return float(cell.rstrip("x%"))
    except ValueError:
        return None


def plot_matrix(ax, header, rows, title):
    """Thread × sweep matrices (fig9/fig10): one line per column."""
    xs = [numeric(r[0]) for r in rows]
    for col in range(1, len(header)):
        ys = [numeric(r[col]) for r in rows]
        if any(y is None for y in ys):
            continue
        ax.plot(xs, ys, marker="o", label=header[col])
    ax.set_xlabel(header[0])
    ax.set_yscale("log")
    ax.set_title(title)
    ax.legend(fontsize=7)


def plot_trace(ax, header, rows, title, x_col, y_cols):
    xs = [numeric(r[x_col]) for r in rows]
    for col in y_cols:
        ys = [numeric(r[col]) for r in rows]
        pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if not pairs:
            continue
        ax.plot([p[0] for p in pairs], [p[1] for p in pairs], label=header[col])
    ax.set_xlabel(header[x_col])
    ax.set_title(title)
    ax.legend(fontsize=7)


def plot_profile(path, out, plt):
    """BENCH_profile.json -> per-scenario self-time bars + coverage."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "lgv-bench-profile/v1":
        sys.exit(f"{path}: not a lgv-bench-profile/v1 artifact")
    made = []

    # Coverage overview: how much of each scenario's wall time the
    # instrumented scopes account for.
    scenarios = doc.get("scenarios", [])
    with_scopes = [s for s in scenarios if s.get("scopes")]
    fig, ax = plt.subplots(figsize=(7, 4), dpi=120)
    names = [s["name"] for s in scenarios]
    ax.bar(names, [100.0 * s.get("coverage", 0.0) for s in scenarios])
    ax.axhline(80, linestyle="--", linewidth=1, color="gray")
    ax.set_ylabel("profiled coverage (% of wall time)")
    ax.set_title("profile coverage per scenario (dashed: 80% target)")
    ax.tick_params(axis="x", rotation=45, labelsize=7)
    fig.tight_layout()
    target = out / "profile_coverage.png"
    fig.savefig(target)
    plt.close(fig)
    made.append(target)

    # Per-scenario self-time breakdown: horizontal bars, hottest scope
    # at the top, path labels as emitted (relative to the scenario).
    for s in with_scopes:
        rows = sorted(s["scopes"], key=lambda r: -r["self_ns"])[:12]
        fig, ax = plt.subplots(figsize=(7, 0.4 * len(rows) + 1.5), dpi=120)
        paths = [r["path"] for r in rows][::-1]
        ms = [r["self_ns"] / 1e6 for r in rows][::-1]
        ax.barh(paths, ms)
        ax.set_xlabel("self time (ms)")
        ax.set_title(f"{s['name']}: wall {s['wall_ms']:.1f} ms, "
                     f"coverage {100.0 * s.get('coverage', 0.0):.1f}%")
        ax.tick_params(axis="y", labelsize=7)
        fig.tight_layout()
        target = out / f"profile_{s['name']}.png"
        fig.savefig(target)
        plt.close(fig)
        made.append(target)
    return made


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--profile":
        if len(sys.argv) < 3:
            sys.exit("usage: plot_figures.py --profile BENCH_profile.json [out_dir]")
        prof = pathlib.Path(sys.argv[2])
        out = pathlib.Path(sys.argv[3] if len(sys.argv) > 3 else "target/figures")
        out.mkdir(parents=True, exist_ok=True)
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            sys.exit("matplotlib is required: pip install matplotlib")
        for p in plot_profile(prof, out, plt):
            print(p)
        return

    src = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "target/figures")
    out = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else src)
    if not src.is_dir():
        sys.exit(f"no CSV directory at {src}; run the figure binaries first")
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    made = []
    for path in sorted(src.glob("*.csv")):
        header, rows = read(path)
        if not rows:
            continue
        fig, ax = plt.subplots(figsize=(6, 4), dpi=120)
        name = path.stem
        if name.startswith(("fig9", "fig10")):
            plot_matrix(ax, header, rows, name)
        elif name == "fig11_trace":
            plot_trace(ax, header, rows, name, 0, [2, 3])
        elif name == "fig12_vmax_series":
            plot_trace(ax, header, rows, name, 0, list(range(1, len(header))))
        else:
            # Generic: bar chart of the first numeric column per row.
            labels = [r[0] for r in rows]
            col = next(
                (c for c in range(1, len(header)) if numeric(rows[0][c]) is not None),
                None,
            )
            if col is None:
                plt.close(fig)
                continue
            ax.bar(labels, [numeric(r[col]) or 0.0 for r in rows])
            ax.set_ylabel(header[col])
            ax.set_title(name)
            ax.tick_params(axis="x", rotation=45, labelsize=7)
        fig.tight_layout()
        target = out / f"{name}.png"
        fig.savefig(target)
        plt.close(fig)
        made.append(target)

    for p in made:
        print(p)
    if not made:
        print("no plottable CSVs found")


if __name__ == "__main__":
    main()
