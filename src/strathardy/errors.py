"""The one exception for an input on which no verdict can be given."""

__all__ = ["Refusal"]


class Refusal(ValueError):
    """An input outside a check's hypotheses or its rule's validated range, refused by the
    code that states the condition.  The CLI exits 3 on it alone: a plain ValueError is a bug."""
