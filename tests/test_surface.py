"""The package keeps only what its own code calls.

Every public module-level function and class in `src/fedsplit` must be
referenced somewhere in `src/fedsplit` besides its own definition.
Helpers that only the tests call belong in `tests/oracles.py`. ALLOWED
pins the exceptions, each with its reason; an allowed name that gains a
caller leaves the list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedsplit"

ALLOWED = {
    "quantize": "the quantizer primitive that the acceptance tests drive",
    "desk_config": "perfbench and the tests build the desk workloads with it",
    "z_sequence": "the z-recursion check, to run on real runs' phases (ROADMAP items 5 and 6)",
    "check_deviation_bound": "the deviation-bound check, to run on real runs' phases (ROADMAP items 5 and 6)",
    "trace_to_jsonl": "the adversary transcript, to write for real runs' phases (ROADMAP items 5 and 6)",
    "z_inference_attack": "the total-mass attack, to report on audited real runs (ROADMAP item 11)",
}


def test_every_public_name_has_a_caller_in_the_package():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert set(ALLOWED) <= set(defined)
    unreferenced = {f"{module}.{name}" for name, module in defined.items() if name not in referenced}
    assert unreferenced == {f"{defined[name]}.{name}" for name in ALLOWED}
