"""Repository benchmark: fixed operation lists, untraced and traced runs."""
