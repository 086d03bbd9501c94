"""Text reporting helpers shared by the CLI and EXPERIMENTS.md tooling."""

from __future__ import annotations

from repro.harness.figures import FigureResult


def render_distribution(result: FigureResult, *, bins: int = 10) -> str:
    """Distributional overhead report for a corpus sweep.

    Per backend: median/p95/p99/range one-liner plus a histogram of
    the overhead factors (log-spaced bins when the spread warrants).
    """
    from repro.analysis.summary import overhead_distributions
    from repro.analysis.textchart import render_histogram

    distributions = overhead_distributions(result)
    if not distributions:
        return f"{result.name}: no supported cells"
    lines = [f"{result.name}: {result.description}",
             "overhead distribution per backend:"]
    for backend, dist in distributions.items():
        lines.append("  " + dist.describe())
    for backend, dist in distributions.items():
        overheads = [c.overhead for c in result.cells
                     if c.backend == backend and c.overhead is not None]
        lines.append(render_histogram(overheads, bins=bins,
                                      title=f"{backend} overhead factors"))
    return "\n".join(lines)


def headline_summary(fig3: FigureResult) -> str:
    """The paper's abstract claims, checked against measured data.

    * single-stepping slows programs by thousands to tens of thousands
      of times;
    * DISE "typically limits debugging overhead to 25% or less".
    """
    single_step = [c.overhead for c in fig3.cells
                   if c.backend == "single_step" and c.overhead]
    dise = [c.overhead for c in fig3.cells
            if c.backend == "dise" and c.overhead]
    dise_typical = sorted(dise)[len(dise) // 2] if dise else float("nan")
    lines = [
        "Headline claims vs measurement:",
        f"  single-stepping slowdown: {min(single_step):,.0f}x - "
        f"{max(single_step):,.0f}x (paper: 6,000x - 40,000x)",
        f"  DISE overhead: median {dise_typical - 1:.1%}, max "
        f"{max(dise) - 1:.1%} (paper: typically <= 25%)",
    ]
    return "\n".join(lines)
