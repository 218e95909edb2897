/* Keyword-free dot product: reduction(+:sum) through an inferred-pure
   combiner (built with --infer-pure --fp-reductions). Inputs are small
   integers, so every partial sum is an exact float in any order.
   usage: dot_reduce SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

float mult(float a, float b) {
  return a * b;
}

void dot(float* a, float* b, float* out, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; i++) {
    sum = sum + mult(a[i], b[i]);
  }
  out[0] = sum;
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = (float)((i * 7 + 3 + seed) % 11);
    b[i] = (float)((i * 5 + 2 + seed) % 13);
  }
  double checksum = 0.0;
  for (int s = 0; s < steps; s++) {
    dot(a, b, out, n);
    checksum += (double)out[0];
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
