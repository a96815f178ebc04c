import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_entry_points_exist():
    # The benchmark wraps these functions by module attribute; a name it
    # lists that the program no longer has breaks the traced runs.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{m.__name__}.{name}" for m, name in tracing.TRACED if not hasattr(m, name)]
    assert not missing, missing
