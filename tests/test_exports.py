"""The package export lists name only what exists."""

import mtprep
import mtprep.metrics


def test_every_exported_name_resolves():
    for module in (mtprep, mtprep.metrics):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        # removed: only its own tests called it
        assert "sentence_bleu" not in namespace
        assert not hasattr(module, "sentence_bleu")
