"""The README's Python API example runs as written and prints what its
comments say, through the imports the package root offers."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def api_example() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python API block"
    return match.group(1)


def test_python_api_example_prints_what_it_documents(capsys):
    code = api_example()
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["[1.  0.8]", "solvable_possibly", "0.0", "35"]
    # each print's trailing comment opens with the value it prints
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(comments) == len(printed)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
