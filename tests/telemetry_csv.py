"""Reading back the telemetry CSV that `metrics.emit` writes."""

import csv

from claimgan.metrics import CSV_COLUMNS, MetricsRecord


def load_records(path) -> list[MetricsRecord]:
    """The records of a CSV written by `metrics.emit`; empty cells read as None."""
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            kwargs = {"run": int(row["run"]), "iter": int(row["iter"])}
            for c in CSV_COLUMNS[2:]:
                kwargs[c] = float(row[c]) if row[c] != "" else None
            records.append(MetricsRecord(**kwargs))
    return records
