"""Segment-mask feature extraction on shared convolutional maps.

Compute an image's convolutional features once, project binary segment
proposals into feature coordinates, pool masked or unmasked windows into
fixed-length pyramid vectors, train linear classifiers on them, select
compact stuff covers by segment pursuit, and paste scored regions into a
pixel labeling.
"""
