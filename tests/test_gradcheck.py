"""The grad check runs the rows training runs, every one of them."""

from collections import Counter

from claimgan import trigan, variants
from claimgan.gradcheck import _random_instance, _rules, check_all_gradients, table_row

RULE_NAMES = {
    "d_p", "d_n", "d_y", "g_p", "g_n", "g_y[alg1-line14]", "g_y[eq4]",
    "inverted:d_n", "inverted:g_p", "inverted:g_n",
    "symmetric:d_p", "symmetric:g_p",
    "symmetric[as-printed]:d_n", "symmetric[as-printed]:g_n",
    "symmetric[intended]:d_n", "symmetric[intended]:g_n",
}


def test_every_table_row_is_checked_exactly_once():
    """A row shared between tables (D_Y_ROW, G_Y_ROW and the symmetric
    positive-pair rows) counts once; G_Y_ROW counts once per g_y mode.
    "generator-labels" is the one mode left out: the benchmark expects
    exactly 16 rule lines from grad-check (GRAD_CHECK_RULES in
    perfbench/child.py), so its row is checked in tests/test_trigan.py."""
    rows = {id(row): row for table in variants.STEP_TABLES.values() for row in table}
    expected = Counter((key, None) for key, row in rows.items() if row is not trigan.G_Y_ROW)
    expected.update(
        (id(trigan.G_Y_ROW), mode) for mode in trigan.G_Y_LOSS_MODES if mode != "generator-labels"
    )
    entries = _rules(*_random_instance(0))
    covered = Counter((id(table_row(variant, net)), mode) for _, variant, net, mode, _ in entries)
    assert covered == expected
    assert {name for name, *_ in entries} == set(check_all_gradients(0, 1)) == RULE_NAMES


def test_a_miswired_row_fails_the_check(monkeypatch):
    """The inverted d_n row trains on positive data; on x_n it must fail."""
    miswired = ("d_n", lambda m, cfg, b: variants.inverted_d_n_grads(m, b.x_n, b.z), "loss_neg")
    table = tuple(miswired if row[0] == "d_n" else row for row in variants.STEP_TABLES["inverted"])
    monkeypatch.setitem(variants.STEP_TABLES, "inverted", table)
    worst = check_all_gradients(0, 1)
    assert worst.pop("inverted:d_n") > 1e-4
    assert max(worst.values()) <= 1e-4
