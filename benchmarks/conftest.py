"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper figure (or one ablation) and prints
the same rows/series the paper reports, so `pytest benchmarks/
--benchmark-only` doubles as the reproduction log.  Shapes are asserted;
absolute values are recorded in EXPERIMENTS.md.
"""


def print_table(title, rows, columns):
    """Render experiment rows as an aligned text table."""
    print(f"\n=== {title} ===")
    header = " | ".join(f"{c:>18}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.3f}")
            else:
                cells.append(f"{str(value):>18}")
        print(" | ".join(cells))
