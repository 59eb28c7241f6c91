package c
