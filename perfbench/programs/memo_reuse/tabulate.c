/* Tabulation: one pure call per element whose result depends only on the
   element's key. The key space (KEYS) sets how much work the keys share:
   a few keys make nearly every memo probe a hit; a key space far larger
   than the memo table makes the insert and evict path run.
   usage: tabulate SEED N KEYS REPS */
#include <stdio.h>
#include <stdlib.h>

float gain;

pure float shade(int v) {
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  for (int k = 0; k < 8; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}

void render(int* vals, float* out, int n) {
  for (int p = 0; p < n; p++)
    out[p] = shade(vals[p]);
}

int main(int argc, char** argv) {
  if (argc < 5) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int keys = atoi(argv[3]);
  int reps = atoi(argv[4]);
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  unsigned h = (unsigned)seed * 2654435761u + 1u;
  for (int i = 0; i < n; i++) {
    h = h * 1664525u + 1013904223u;
    vals[i] = (int)((h >> 8) % (unsigned)keys);
  }
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  double checksum = 0.0;
  for (int r = 0; r < reps; r++) {
    render(vals, out, n);
    checksum += (double)out[r % n];
  }
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
