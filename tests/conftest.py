import pytest


@pytest.fixture
def fail_on_call(monkeypatch):
    """fail_on_call(module, name, n, error): make module.name raise error on
    its n-th call, after n - 1 calls that work."""
    def patch(module, name, n, error=RuntimeError("write interrupted")):
        real, calls = getattr(module, name), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == n:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)

    return patch
