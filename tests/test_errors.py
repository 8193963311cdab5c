"""The error hierarchy holds only classes the library raises."""

import re
from pathlib import Path

from rieszmc import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "rieszmc"


def test_every_error_class_is_raised():
    # a class no code raises can be neither caught nor printed by the CLI
    source = "\n".join(path.read_text() for path in sorted(SRC.glob("*.py")))
    raised = set(re.findall(r"\braise (\w+)\(", source))
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert sorted(classes - raised) == ["RieszmcError"]
