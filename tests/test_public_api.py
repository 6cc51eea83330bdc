"""The public API hides no parameters: every name a caller can pass is public."""
import inspect

import confounders


def public_callables():
    """(label, callable) for each function in `confounders.__all__`, and for
    the public methods and `__init__` of each class there."""
    for name in confounders.__all__:
        obj = getattr(confounders, name)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if inspect.isfunction(member) or inspect.ismethod(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj):
            yield name, obj


def test_public_callables_take_no_underscore_parameters():
    hidden = [
        f"{label}({param})"
        for label, func in public_callables()
        for param in inspect.signature(func).parameters
        if param.startswith("_")
    ]
    assert hidden == []


def test_the_scan_sees_the_whole_api():
    labels = {label for label, _ in public_callables()}
    assert {"check_property1", "check_property2a", "check_property2b"} <= labels
    assert {"Dag.__init__", "DiscreteModel.standardized_rd", "FuzzConfig.__init__"} <= labels
