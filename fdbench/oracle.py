"""Closed-form central terms of the deformed Virasoro relations, checked by sympy.

    python3 fdbench/oracle.py < pairs.json

reads a JSON list of ``[m, rendered central term]`` and prints the JSON list of
the pairs whose value differs from -(1-q)(1-p/q)/(1-p) (p^m - p^-m) at q = -1.
It runs in a process of its own, so that sympy's memory stays out of the
benchmark's peak resident size.
"""

import json
import sys

import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

P = sympy.Symbol("p")


def expected_central(m):
    return -2 * (1 + P) / (1 - P) * (P**m - P**-m)


def differs(m, text):
    got = parse_expr(text, local_dict={"p": P},
                     transformations=standard_transformations + (convert_xor,))
    return sympy.cancel(got - expected_central(m)) != 0


if __name__ == "__main__":
    pairs = json.load(sys.stdin)
    json.dump([[m, text] for m, text in pairs if differs(m, text)], sys.stdout)
