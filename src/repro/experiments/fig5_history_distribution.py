"""Fig. 5 — node-count distribution of the pre-training dataflow DAGs.

The paper plots what share of the pre-training corpus has 2..10 logical
operators.  Our corpus (5 Nexmark + 56 PQP queries) is constructed to
reproduce the published ratios exactly (see the PQP module docstring); the
experiment also reports the realised distribution of a generated history,
which matches in expectation because queries are drawn uniformly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.experiments import context
from repro.experiments.claims import Claim
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

#: Fig. 5's published percentages by node count.
PAPER_DISTRIBUTION = {
    2: 6.56,
    3: 8.20,
    4: 8.20,
    5: 11.48,
    6: 13.11,
    7: 16.39,
    8: 19.67,
    9: 13.11,
    10: 3.28,
}


@dataclass(frozen=True)
class Fig5Result:
    corpus_percentages: dict[int, float]
    history_percentages: dict[int, float]


def run(scale: ExperimentScale | None = None) -> Fig5Result:
    scale = scale or resolve_scale()
    corpus = context.corpus("flink")
    corpus_counts = Counter(len(query.flow) for query in corpus)
    corpus_pct = {
        n: 100.0 * corpus_counts.get(n, 0) / len(corpus)
        for n in PAPER_DISTRIBUTION
    }
    records = context.history("flink", scale)
    history_counts = Counter(len(record.flow) for record in records)
    history_pct = {
        n: 100.0 * history_counts.get(n, 0) / len(records)
        for n in PAPER_DISTRIBUTION
    }
    return Fig5Result(corpus_percentages=corpus_pct, history_percentages=history_pct)


def claims(result: Fig5Result, scale: ExperimentScale) -> list[Claim]:
    """The corpus has the published ratios; the history tracks the corpus."""
    corpus, history = result.corpus_percentages, result.history_percentages
    return [
        Claim(f"fig5/|corpus-paper|<=0.01/{n}-nodes", abs(corpus[n] - paper), "<=", 0.01)
        for n, paper in PAPER_DISTRIBUTION.items()
    ] + [
        Claim(f"fig5/|history-corpus|<=5.0/{n}-nodes", abs(history[n] - corpus[n]), "<=", 5.0)
        for n in PAPER_DISTRIBUTION
    ]


def main(scale: ExperimentScale | None = None) -> Fig5Result:
    result = run(scale)
    rows = [
        (
            n,
            f"{PAPER_DISTRIBUTION[n]:.2f}%",
            f"{result.corpus_percentages[n]:.2f}%",
            f"{result.history_percentages[n]:.2f}%",
        )
        for n in sorted(PAPER_DISTRIBUTION)
    ]
    print(
        format_table(
            ["# DAG nodes", "paper", "corpus (this repo)", "generated history"],
            rows,
            title="Fig. 5 - Distribution of Pre-trained Dataflow DAGs",
        )
    )
    return result


if __name__ == "__main__":
    main()
