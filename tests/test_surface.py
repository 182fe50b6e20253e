"""The package keeps only what its own code calls.

Every public module-level function, class and constant (an UPPER_CASE
name assigned at top level) in `src/fedsplit` must be read somewhere in
`src/fedsplit` besides its own definition, and so must every public method
and property of a public class.  Helpers that only the tests call belong in
`tests/oracles.py`. ALLOWED pins the exceptions, each with its reason; an
allowed name that gains a caller leaves the list.
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
    "QuantizerState.bin": "acceptance criterion 3 reads the bin width of each box",
    "QuantizerState.knob": "the tests' `values` oracle maps knob indices to values with it",
    "StepWeights.at": "the per-round reference that `table` is tested against",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def test_every_public_name_has_a_caller_in_the_package():
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                defined[node.name] = f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and _public(member.name):
                        defined[f"{node.name}.{member.name}"] = f"{path.stem}.{node.name}.{member.name}"
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and _public(target.id):
                    defined[target.id] = f"{path.stem}.{target.id}"
        for node in ast.walk(tree):
            # a definition's own Store name is not a read
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert set(ALLOWED) <= set(defined)
    unread = {where for name, where in defined.items() if name.split(".")[-1] not in read}
    assert unread == {defined[name] for name in ALLOWED}
