"""udgscan: unified dependency graphs, holistic context extraction, and
guideline-driven LLM vulnerability triage for a Java subset."""
