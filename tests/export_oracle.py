"""The object-based ``rules_to_csv``/``export_rule_graph`` that ``rules`` used
before the exporters formatted the columns of a ``RuleTable``.

The two functions are kept unchanged and read one object per rule; ``rows``
turns a table into such objects through a minimal stand-in for the old
``Rule``. The column exporters must match them byte for byte.

``coo_text`` is ``TfIdfMatrix.to_coo_text`` as it was before each distinct
weight was formatted once: one f-string per stored entry.
"""

import csv
from dataclasses import dataclass
from io import StringIO

from incmine.rules import RuleMetrics


class _Itemset(tuple):
    def label(self) -> str:
        return "+".join(self)


@dataclass(frozen=True)
class _Rule:
    antecedent: _Itemset
    consequent: _Itemset
    neg_antecedent: bool
    neg_consequent: bool
    metrics: RuleMetrics

    @property
    def is_par(self) -> bool:
        return not self.neg_antecedent and not self.neg_consequent


def rows(table):
    """One stand-in rule object per table row, in table order."""
    return [_Rule(_Itemset(table.itemsets[a]), _Itemset(table.itemsets[b]), na, nb,
                  RuleMetrics(s, c, l))
            for a, b, na, nb, s, c, l in zip(
                table.antecedent.tolist(), table.consequent.tolist(),
                table.neg_antecedent.tolist(), table.neg_consequent.tolist(),
                table.support.tolist(), table.confidence.tolist(), table.lift.tolist())]


def rules_to_csv(rules) -> str:
    """CSV with '+'-joined itemsets, 0/1 negation flags and 6-decimal metrics."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["antecedent", "consequent", "neg_a", "neg_c",
                     "support", "confidence", "lift"])
    for rule in rules:
        writer.writerow([
            rule.antecedent.label(),
            rule.consequent.label(),
            int(rule.neg_antecedent),
            int(rule.neg_consequent),
            f"{rule.metrics.support:.6f}",
            f"{rule.metrics.confidence:.6f}",
            f"{rule.metrics.lift:.6f}",
        ])
    return buf.getvalue()


def _node_label(itemset, negated: bool) -> str:
    return ("¬" if negated else "") + itemset.label()


def export_rule_graph(rules) -> str:
    """Directed GraphViz DOT text; NAR edges dashed, negated sides prefixed.

    Output is byte-stable: nodes and edges are emitted in sorted order.
    """
    nodes: set[str] = set()
    edges: list[tuple[str, str, str, bool]] = []
    for rule in rules:
        tail = _node_label(rule.antecedent, rule.neg_antecedent)
        head = _node_label(rule.consequent, rule.neg_consequent)
        nodes.add(tail)
        nodes.add(head)
        label = (f"s={rule.metrics.support:.3f} "
                 f"c={rule.metrics.confidence:.3f} "
                 f"l={rule.metrics.lift:.3f}")
        edges.append((tail, head, label, not rule.is_par))
    def quote(name: str) -> str:
        return '"' + name.replace('"', '\\"') + '"'

    lines = ["digraph rules {"]
    for node in sorted(nodes):
        lines.append(f"  {quote(node)};")
    for tail, head, label, dashed in sorted(edges):
        style = ", style=dashed" if dashed else ""
        lines.append(f'  {quote(tail)} -> {quote(head)} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def coo_text(matrix):
    """``TfIdfMatrix.to_coo_text`` as it was: one f-string per entry."""
    lines = [f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}"]
    for r, c, w in zip(matrix.rows, matrix.cols, matrix.weights):
        lines.append(f"{int(r)} {int(c)} {float(w)!r}")
    return "\n".join(lines) + "\n"
