from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README} (Library sketch)", "exec"), namespace)
    assert len(namespace["trace"]) == 10 * (128 // 32)
    assert np.isfinite(namespace["theta"].data).all()
